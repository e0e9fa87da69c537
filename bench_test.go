// Repository-level benchmarks: one per table/figure of the paper's
// evaluation (run `go test -bench=. -benchmem` or see cmd/experiments for
// the full figure regeneration), plus ablation benches for the design
// choices called out in DESIGN.md and microbenches for the hot components.
package fgcs_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/experiments"
	"fgcs/internal/fgcssim"
	"fgcs/internal/host"
	"fgcs/internal/ishare"
	"fgcs/internal/monitor"
	"fgcs/internal/otrace"
	"fgcs/internal/predict"
	"fgcs/internal/simclock"
	"fgcs/internal/smp"
	"fgcs/internal/timeseries"
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

// ----------------------------------------------------- E1/E2 (Sec 3.2) ----

// BenchmarkE1CPUContention measures one CPU-contention trial of the study
// that derives Th1 and Th2.
func BenchmarkE1CPUContention(b *testing.B) {
	m := host.DefaultMachine()
	hosts := []host.Proc{{Name: "h", IsolatedCPU: 0.5, MemMB: 60}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _, err := host.Reduction(m, hosts, host.Guest{Nice: 19, MemMB: 50}, 2*time.Minute, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2MemoryContention measures one memory-thrashing trial.
func BenchmarkE2MemoryContention(b *testing.B) {
	m := host.DefaultMachine()
	hosts := []host.Proc{{Name: "compile-large", IsolatedCPU: 0.67, MemMB: 213}}
	g := &host.Guest{Nice: 19, MemMB: 193} // 213+193+50 > 384: thrashing
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := host.Simulate(m, hosts, g, 2*time.Minute, uint64(i))
		if err != nil || !res.Thrashing {
			b.Fatalf("err=%v thrashing=%v", err, res.Thrashing)
		}
	}
}

// ------------------------------------------------------- F4 (Figure 4) ----

// BenchmarkF4PredictionCost regenerates the Figure 4 series: the wall cost
// of one full prediction (sojourn extraction + Q/H estimation + the
// Equation (3) solve) per window length.
func BenchmarkF4PredictionCost(b *testing.B) {
	sp := benchSplit(b)
	p := predict.SMP{Cfg: avail.DefaultConfig()}
	for _, hours := range []float64{0.5, 1, 2, 5, 10} {
		w := predict.Window{Start: 8 * time.Hour, Length: time.Duration(hours * float64(time.Hour))}
		b.Run(fmt.Sprintf("%gh", hours), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Predict(sp.Train, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------- F5 (Figure 5) ----

// BenchmarkF5Accuracy measures one accuracy evaluation (train + score) of
// the kind Figure 5 aggregates over 240 windows.
func BenchmarkF5Accuracy(b *testing.B) {
	sp := benchSplit(b)
	p := predict.SMP{Cfg: avail.DefaultConfig()}
	w := predict.Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := predict.EvaluateSMP(p, sp, w); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------- F6 (Figure 6) ----

// BenchmarkF6TrainingRatio measures one ratio point of the Figure 6 sweep.
func BenchmarkF6TrainingRatio(b *testing.B) {
	ds := benchDataset(b)
	p := predict.SMP{Cfg: avail.DefaultConfig()}
	w := predict.Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := trace.SplitRatio(ds.Machines[0], trace.Weekday, 6, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := predict.EvaluateSMP(p, sp, w); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------- F7 (Figure 7) ----

// BenchmarkF7ModelComparison measures one evaluation per algorithm of the
// Figure 7 comparison (SMP vs the Table 1 linear time-series models).
func BenchmarkF7ModelComparison(b *testing.B) {
	sp := benchSplit(b)
	w := predict.Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	b.Run("SMP", func(b *testing.B) {
		p := predict.SMP{Cfg: avail.DefaultConfig()}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := predict.EvaluateSMP(p, sp, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, f := range timeseries.ReferenceSuite() {
		f := f
		b.Run(f.Name(), func(b *testing.B) {
			ts := predict.TimeSeries{Cfg: avail.DefaultConfig(), Fitter: f}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := predict.EvaluateTimeSeries(ts, sp, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------- F8 (Figure 8) ----

// BenchmarkF8NoiseRobustness measures one noisy-prediction round of the
// Figure 8 robustness study.
func BenchmarkF8NoiseRobustness(b *testing.B) {
	ds := benchDataset(b)
	cfg := experiments.DefaultF8Config()
	cfg.NoiseCounts = []int{4}
	cfg.LengthsHours = []float64{2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunF8(ds.Machines[0], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------- S6/S7 (Sec 6, 7.1) ----

// BenchmarkS6TraceStats measures counting the unavailability occurrences of
// one day (the Section 6.1 statistics).
func BenchmarkS6TraceStats(b *testing.B) {
	day := benchDataset(b).Machines[0].Days[0]
	cfg := avail.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		avail.CountEvents(day, cfg)
	}
}

// BenchmarkS7MonitorOverhead measures one monitor sampling tick — the cost
// the paper reports as <1% of the 6 s period.
func BenchmarkS7MonitorOverhead(b *testing.B) {
	rec := monitor.NewRecorder("bench", trace.DefaultPeriod, 0)
	mon, err := monitor.New(monitor.Config{Period: trace.DefaultPeriod},
		monitor.StaticSource{CPU: 25, FreeMemMB: 300}, rec)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mon.Tick(base.Add(time.Duration(i) * trace.DefaultPeriod))
	}
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

// ---------------------------------------------------------- components ----

// BenchmarkClassify measures the five-state classification of a full day.
func BenchmarkClassify(b *testing.B) {
	day := benchDataset(b).Machines[0].Days[0]
	cfg := avail.DefaultConfig()
	b.ReportAllocs()
	b.SetBytes(int64(day.Len()))
	for i := 0; i < b.N; i++ {
		avail.Classify(day.Samples, cfg, day.Period)
	}
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

// BenchmarkExtractTrajectories measures estimation preprocessing for one
// full day on a warmed extractor, as the engine's pooled scratch holds it.
func BenchmarkExtractTrajectories(b *testing.B) {
	day := benchDataset(b).Machines[0].Days[0]
	cfg := avail.DefaultConfig()
	ex := avail.NewExtractor(cfg, day.Period)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex.Reset(cfg, day.Period)
		ex.AddWindow(day.Samples, false)
		ex.Seqs()
	}
}

// BenchmarkKernelEstimate measures Q/H estimation from a training pool.
func BenchmarkKernelEstimate(b *testing.B) {
	sp := benchSplit(b)
	cfg := avail.DefaultConfig()
	w := predict.Window{Start: 8 * time.Hour, Length: 5 * time.Hour}
	seqs := benchSeqs(sp.Train, w, cfg)
	units := w.Units(trace.DefaultPeriod)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (smp.Estimator{Horizon: units}).Estimate(seqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeSeriesFit measures fitting each Table 1 model to a 2-hour
// load window.
func BenchmarkTimeSeriesFit(b *testing.B) {
	day := benchDataset(b).Machines[0].Days[0]
	samples := day.Window(6*time.Hour, 2*time.Hour)
	series := make([]float64, len(samples))
	for i, s := range samples {
		series[i] = s.CPU
	}
	for _, f := range timeseries.ReferenceSuite() {
		f := f
		b.Run(f.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Fit(series); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// BenchmarkE1bPolicy measures one policy-controlled contention run.
func BenchmarkE1bPolicy(b *testing.B) {
	m := host.DefaultMachine()
	hosts := []host.Proc{{Name: "h", IsolatedCPU: 0.5, MemMB: 40}}
	for _, pol := range []host.GuestPolicy{host.PolicyTwoThreshold, host.PolicyGradual, host.PolicyAlwaysLowest} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := host.SimulatePolicy(m, hosts, pol, 20, 60, 2*time.Minute, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// BenchmarkEngineCachedVsCold compares a cold engine query — the full
// pipeline (history fingerprinting, trajectory extraction, kernel
// estimation, the Equation (3) solve) — against a warm query served from the
// kernel cache. The warm path must be at least 5× cheaper; in practice it is
// orders of magnitude cheaper, since a hit is a fingerprint plus one map
// lookup.
func BenchmarkEngineCachedVsCold(b *testing.B) {
	sp := benchSplit(b)
	p := predict.SMP{Cfg: avail.DefaultConfig()}
	w := predict.Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := predict.NewEngine(predict.EngineConfig{})
			if _, err := e.PredictCtx(context.Background(), p, sp.Train, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e := predict.NewEngine(predict.EngineConfig{})
		if _, err := e.PredictCtx(context.Background(), p, sp.Train, w); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.PredictCtx(context.Background(), p, sp.Train, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

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

// ------------------------------------------------------------- tracing ----

// BenchmarkEnginePredictTracing measures the prediction engine's warm-cache
// path with tracing disabled (an untraced context — the
// instrumented-but-unsampled hot path, which must stay allocation-free) and
// under a sampled span that records cache events and fit/solve children.
// The "off" variant is the benchgate sentinel for zero-overhead tracing.
func BenchmarkEnginePredictTracing(b *testing.B) {
	sp := benchSplit(b)
	p := predict.SMP{Cfg: avail.DefaultConfig()}
	w := predict.Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	e := predict.NewEngine(predict.EngineConfig{})
	if _, err := e.PredictCtx(context.Background(), p, sp.Train, w); err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.PredictCtx(ctx, p, sp.Train, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled", func(b *testing.B) {
		tracer := otrace.New(otrace.Config{SampleRate: 1, Recorder: otrace.NewRecorder(8)})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, span := tracer.Start(context.Background(), "bench.predict")
			if _, err := e.PredictCtx(ctx, p, sp.Train, w); err != nil {
				b.Fatal(err)
			}
			span.End()
		}
	})
}

// BenchmarkQueryTRTracing measures a full in-process QueryTR — current-state
// classification, window derivation, engine lookup — on a host node with
// tracing disabled versus under a sampled trace, the gate for the "tracing
// off costs nothing, tracing on costs little" contract at the RPC layer.
func BenchmarkQueryTRTracing(b *testing.B) {
	m := benchDataset(b).Machines[0]
	last := m.Days[len(m.Days)-1].Date
	now := last.Add(24*time.Hour + 8*time.Hour + 30*time.Minute)
	clock := simclock.NewVirtual(now)
	node, err := ishare.NewHostNode(ishare.NodeConfig{
		MachineID: m.ID, Cfg: avail.DefaultConfig(), Period: m.Period,
		Clock: clock, Preloaded: m,
	}, monitor.StaticSource{CPU: 25, FreeMemMB: 300})
	if err != nil {
		b.Fatal(err)
	}
	node.SM.Record(now, trace.Sample{CPU: 5, FreeMemMB: 400, Up: true})
	req := ishare.QueryTRReq{LengthSeconds: 7200, GuestMemMB: 100}
	b.Run("off", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := node.SM.QueryTR(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled", func(b *testing.B) {
		tracer := otrace.New(otrace.Config{SampleRate: 1, Recorder: otrace.NewRecorder(8)})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, span := tracer.Start(context.Background(), "bench.query-tr")
			if _, err := node.SM.QueryTR(ctx, req); err != nil {
				b.Fatal(err)
			}
			span.End()
		}
	})
}

// BenchmarkQueryTREnsemble compares a full in-process QueryTR on a
// single-predictor node against the same query on an ensemble node
// (router-selected serving, FFT/PCT shadows through the engine cache). The
// sub-benchmarks run in one process so `benchgate -ensemble` can gate their
// ratio machine-independently: the ensemble path must stay within the
// tolerance of the single-predictor path.
func BenchmarkQueryTREnsemble(b *testing.B) {
	m := benchDataset(b).Machines[0]
	last := m.Days[len(m.Days)-1].Date
	now := last.Add(24*time.Hour + 8*time.Hour + 30*time.Minute)
	req := ishare.QueryTRReq{LengthSeconds: 7200, GuestMemMB: 100}
	newNode := func(ensemble bool) *ishare.HostNode {
		node, err := ishare.NewHostNode(ishare.NodeConfig{
			MachineID: m.ID, Cfg: avail.DefaultConfig(), Period: m.Period,
			Clock: simclock.NewVirtual(now), Preloaded: m,
			Ensemble: ensemble,
		}, monitor.StaticSource{CPU: 25, FreeMemMB: 300})
		if err != nil {
			b.Fatal(err)
		}
		node.SM.Record(now, trace.Sample{CPU: 5, FreeMemMB: 400, Up: true})
		return node
	}
	b.Run("single", func(b *testing.B) {
		node := newNode(false)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := node.SM.QueryTR(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ensemble", func(b *testing.B) {
		node := newNode(true)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := node.SM.QueryTR(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------- durability ----

// benchWALSample returns the i-th quantized monitor sample of the WAL
// benchmarks' synthetic session.
func benchWALSample(i int) (time.Time, trace.Sample) {
	base := time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)
	t := durable.QuantizeTime(base.Add(time.Duration(i) * trace.DefaultPeriod))
	s := durable.QuantizeSample(trace.Sample{
		CPU: float64(i%97) * 0.9, FreeMemMB: 200 + float64(i%64), Up: i%23 != 0,
	})
	return t, s
}

// BenchmarkWALAppend measures durably logging one monitor sample: delta
// encoding plus the CRC32C-framed segment append. The mem variant isolates
// the codec+framing cost on an in-memory FS; os-batch adds the real write
// syscall with fsync deferred to rotation/snapshot (the -fsync batch
// policy). Per-sample fsync (-fsync always) is deliberately not gated — its
// cost is the disk's, not the code's.
func BenchmarkWALAppend(b *testing.B) {
	run := func(b *testing.B, fs durable.FS, sync durable.SyncPolicy) {
		st, _, err := durable.Open(durable.Config{FS: fs, SegmentBytes: 1 << 20, Sync: sync})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		var coder durable.SampleCoder
		buf := make([]byte, 0, 32)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, s := benchWALSample(i)
			buf = coder.Encode(buf[:0], t, s)
			if err := st.Append(durable.RecSample, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mem", func(b *testing.B) {
		run(b, durable.NewMemFS(), durable.SyncAlways)
	})
	b.Run("os-batch", func(b *testing.B) {
		fs, err := durable.NewOSFS(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, fs, durable.SyncBatch)
	})
}

// BenchmarkRecover measures a cold boot from durable state: snapshot
// selection and validation plus replay of a WAL tail the given number of
// samples long — the startup cost a crashed node pays before it can serve.
func BenchmarkRecover(b *testing.B) {
	for _, tail := range []int{1000, 10000} {
		tail := tail
		fs := durable.NewMemFS()
		st, _, err := durable.Open(durable.Config{FS: fs, SegmentBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		seq, off := st.Position()
		state := []byte("bench-node-state")
		if err := st.WriteSnapshotAt(seq, off, int64(len(state)), func(w io.Writer) error { _, err := w.Write(state); return err }); err != nil {
			b.Fatal(err)
		}
		var coder durable.SampleCoder
		buf := make([]byte, 0, 32)
		for i := 0; i < tail; i++ {
			t, s := benchWALSample(i)
			buf = coder.Encode(buf[:0], t, s)
			if err := st.Append(durable.RecSample, buf); err != nil {
				b.Fatal(err)
			}
		}
		// Dirty shutdown: the tail must be replayed, not skipped.
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tail-%d", tail), func(b *testing.B) {
			// One warm-up recovery outside the timer: first-use costs (lazy
			// tables, fs cache shaping) otherwise smear ~2 allocs/op into
			// small-N runs and flake the benchgate's zero-tolerance allocs
			// rule.
			if st, _, err := durable.Open(durable.Config{FS: fs, SegmentBytes: 1 << 20}); err != nil {
				b.Fatal(err)
			} else {
				st.Close()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, rec, err := durable.Open(durable.Config{FS: fs, SegmentBytes: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				if len(rec.Records) != tail {
					b.Fatalf("replayed %d records, want %d", len(rec.Records), tail)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
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
