//go:build !race

package cosm

const raceDetector = false
