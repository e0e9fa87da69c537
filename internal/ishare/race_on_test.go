//go:build race

package ishare

// raceDetector reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of what is put into it — by design, to
// shake out reuse bugs — so allocation ceilings that count on pooled scratch
// do not hold.
const raceDetector = true
