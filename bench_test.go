// Repository-level benchmarks for what neither `cmd/experiments -run` nor a
// bench/ workload already times: the Equation (3) solver ablation, the
// workload generator and trace codecs, the batch worker pool and the
// fgcssim day. Run them with `go test -run '^$' -bench . -benchmem .`.
package fgcs_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/experiments"
	"fgcs/internal/fgcssim"
	"fgcs/internal/predict"
	"fgcs/internal/smp"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

// ---------------------------------------------------------------- setup ----

var (
	benchOnce  sync.Once
	benchTrace *trace.Dataset
)

// benchDataset lazily generates a small shared testbed trace (1 machine,
// 28 days) so individual benchmarks stay fast.
func benchDataset(b *testing.B) *trace.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		p := workload.DefaultParams()
		p.Machines = 1
		p.Days = 28
		ds, err := workload.Generate(p)
		if err != nil {
			panic(err)
		}
		benchTrace = ds
	})
	return benchTrace
}

func benchSplit(b *testing.B) trace.Split {
	b.Helper()
	sp, err := trace.SplitHalf(benchDataset(b).Machines[0], trace.Weekday)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// ------------------------------------------------------------ ablations ----

// BenchmarkAblationSolver compares the paper's dense Equation (3) recursion
// (Kernel.Solve, the Figure 4 subject) with the sparse-support convolution
// the serving solve runs (identical results, different cost class).
func BenchmarkAblationSolver(b *testing.B) {
	sp := benchSplit(b)
	cfg := avail.DefaultConfig()
	w := predict.Window{Start: 8 * time.Hour, Length: 5 * time.Hour}
	units := w.Units(trace.DefaultPeriod)
	seqs := benchSeqs(sp.Train, w, cfg)
	kernel, err := smp.Estimator{Horizon: units}.Estimate(seqs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kernel.Solve(avail.S1, units); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := kernel.ReliabilitiesWS(nil, units); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSeqs extracts the training sequences of one window over a day pool the
// way SMP.prepare does: every day through one Extractor.
func benchSeqs(days []*trace.Day, w predict.Window, cfg avail.Config) [][]avail.Sojourn {
	ex := avail.NewExtractor(cfg, trace.DefaultPeriod)
	for _, d := range days {
		ex.AddWindow(d.Window(w.Start, w.Length), false)
	}
	return ex.Seqs()
}

// BenchmarkWorkloadGenerateDay measures synthesizing one machine-day of
// 6-second samples.
func BenchmarkWorkloadGenerateDay(b *testing.B) {
	p := workload.DefaultParams()
	p.Machines = 1
	p.Days = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		if _, err := workload.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCodec measures encoding+decoding a machine-week in both
// codecs.
func BenchmarkTraceCodec(b *testing.B) {
	p := workload.DefaultParams()
	p.Machines = 1
	p.Days = 7
	ds, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, ds); err != nil {
				b.Fatal(err)
			}
			if _, err := trace.ReadBinary(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := trace.WriteText(&buf, ds); err != nil {
				b.Fatal(err)
			}
			if _, err := trace.ReadText(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorkloadProfiles compares generating a machine-day under each
// workload profile.
func BenchmarkWorkloadProfiles(b *testing.B) {
	for _, prof := range []workload.Profile{workload.ProfileLab, workload.ProfileEnterprise} {
		prof := prof
		b.Run(prof.String(), func(b *testing.B) {
			p := workload.DefaultParams()
			p.Machines = 1
			p.Days = 1
			p.Profile = prof
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Seed = uint64(i + 1)
				if _, err := workload.Generate(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------- engine ----

// BenchmarkPredictBatchParallel compares a serial SMP.Predict loop against
// Engine.PredictBatch over the same request set with caching disabled, so
// every request recomputes and the comparison measures worker-pool
// throughput rather than cache hits. The batch results are bit-identical to
// the serial loop (asserted by TestPredictBatchMatchesSerial); on a host
// with ≥4 cores the parallel variants are expected to run the batch ≥2×
// faster than the serial loop.
func BenchmarkPredictBatchParallel(b *testing.B) {
	params := workload.DefaultParams()
	params.Machines = 8
	params.Days = 28
	ds, err := workload.Generate(params)
	if err != nil {
		b.Fatal(err)
	}
	p := predict.SMP{Cfg: avail.DefaultConfig()}
	var reqs []predict.BatchRequest
	for _, m := range ds.Machines {
		days := m.DaysOfType(trace.Weekday)
		for _, hours := range []float64{1, 2, 3} {
			w := predict.Window{Start: 8 * time.Hour, Length: time.Duration(hours * float64(time.Hour))}
			reqs = append(reqs, predict.BatchRequest{Machine: m.ID, History: days, Window: w})
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := p.Predict(r.History, r.Window); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			e := predict.NewEngine(predict.EngineConfig{CacheSize: -1, Workers: workers})
			for i := 0; i < b.N; i++ {
				for _, r := range e.PredictBatch(p, reqs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkFGCSSimDay measures simulating one full testbed-day of the
// whole-deployment simulation (6-second steps across all machines).
func BenchmarkFGCSSimDay(b *testing.B) {
	ds, err := experiments.HeterogeneousTestbed(8, []float64{1.2, 0.5}, 4)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := fgcssim.PoissonJobs(4, ds, 7, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fgcssim.Config{Dataset: ds, Cfg: avail.DefaultConfig(), StartDay: 7, Policy: fgcssim.PolicyTRAware, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fgcssim.Run(cfg, jobs); err != nil {
			b.Fatal(err)
		}
	}
}
