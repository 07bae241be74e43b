//go:build !race

package router

const raceDetector = false
