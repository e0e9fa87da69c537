//go:build !race

package predict

const raceDetector = false
