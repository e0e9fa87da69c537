package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"fgcs/internal/stats"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending slice: the smallest value with at least p of the samples at or
// below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minBeyond is how many samples must lie beyond a percentile's rank for the
// percentile to be reported: with fewer, the figure is set by a handful of
// outliers and does not repeat.
const minBeyond = 10

// supportedPercentile returns the highest of the candidate percentiles that
// has at least minBeyond samples beyond its rank among n samples (0 when not
// even the median does).
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median is 0 for an empty slice.
func median(v []float64) float64 {
	m, _ := stats.Quantile(v, 0.5)
	return m
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles as Python's
// statistics.quantiles(v, n=4) gives them (the driver's acceptance rule).
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// digest folds a stream of values into an FNV-1a hash; answers and
// schedules are compared across repetitions and runs by it.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) sum() uint64   { return d.h.Sum64() }
