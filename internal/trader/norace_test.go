//go:build !race

package trader

const raceDetector = false
