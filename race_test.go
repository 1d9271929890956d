//go:build race

package bench

// raceDetector is set in race-detector builds. There sync.Pool drops a
// random share of what it is handed, so a call that reuses pooled
// objects allocates a different count every run.
const raceDetector = true
