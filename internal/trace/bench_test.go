package trace_test

import (
	"bytes"
	"testing"

	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

// quantizedDay returns the first day of a seeded generator machine at the
// 6 s period, 14 400 samples, each quantized to WAL units: a day as a node
// records it, which a snapshot part stores compact.
func quantizedDay(b *testing.B) (*trace.Machine, *trace.Day) {
	p := workload.DefaultParams()
	p.Machines, p.Days, p.Seed = 1, 1, 1
	ds, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	m := ds.Machines[0]
	d := m.Days[0]
	for i := range d.Samples {
		d.Samples[i] = trace.Quantize(d.Samples[i])
	}
	return m, d
}

// BenchmarkAppendDay encodes the day as a snapshot part holds it.
func BenchmarkAppendDay(b *testing.B) {
	_, d := quantizedDay(b)
	buf := trace.AppendDay(nil, d)
	if buf[12] != 1 {
		b.Fatal("the quantized day was not stored compact")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = trace.AppendDay(buf[:0], d)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/day")
}

// BenchmarkReadDay decodes the part BenchmarkAppendDay encodes, through
// one Decoder, as recovery reads every part.
func BenchmarkReadDay(b *testing.B) {
	m, d := quantizedDay(b)
	enc := trace.AppendDay(nil, d)
	var dec trace.Decoder
	r := bytes.NewReader(enc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(enc)
		if _, err := dec.ReadDay(r, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/day")
}
