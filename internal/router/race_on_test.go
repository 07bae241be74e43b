//go:build race

package router

// raceDetector reports that the tests run under -race, whose runtime
// makes allocation counts wobble (sync.Pool drops a quarter of its Puts).
const raceDetector = true
