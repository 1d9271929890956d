//go:build race

package core

// raceDetector is set in race-detector builds, whose instrumentation
// allocates on its own, so exact allocation counts hold only without it.
const raceDetector = true
