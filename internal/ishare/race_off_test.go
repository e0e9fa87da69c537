//go:build !race

package ishare

const raceDetector = false
