//go:build race

package predict

// raceDetector reports whether the test binary was built with -race, whose
// instrumentation is not the configuration allocation ceilings measure.
const raceDetector = true
