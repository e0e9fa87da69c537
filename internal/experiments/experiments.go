// Package experiments regenerates the paper's evaluation: every figure of
// Section 7 (F4 cost, F5 accuracy, F6 training-ratio sensitivity, F7
// comparison against linear time-series models, F8 noise robustness) plus
// the Section 6.1 trace statistics (S6) and the Section 7.1 monitoring
// overhead (S7). The Section 3.2 contention studies (E1, E2) live in
// package host.
//
// Each Run* function returns the rows of the corresponding figure; cmd/
// experiments prints them and EXPERIMENTS.md records the measured outcomes
// next to the paper's.
package experiments

import (
	"fmt"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/monitor"
	"fgcs/internal/predict"
	"fgcs/internal/rng"
	"fgcs/internal/smp"
	"fgcs/internal/stats"
	"fgcs/internal/timeseries"
	"fgcs/internal/trace"
)

// DefaultLengthsHours are the window lengths of Figures 5-8.
var DefaultLengthsHours = []float64{1, 2, 3, 5, 10}

// windowFor builds the prediction window, returning false when it does not
// fit inside a day.
func windowFor(startHour, lengthHours float64) (predict.Window, bool) {
	w := predict.Window{
		Start:  time.Duration(startHour * float64(time.Hour)),
		Length: time.Duration(lengthHours * float64(time.Hour)),
	}
	return w, w.Validate() == nil
}

// ------------------------------------------------------------------ F4 ----

// F4Row is one point of Figure 4: the computational cost of predicting over
// a window of the given length.
type F4Row struct {
	WindowHours float64
	// QHTime is the time to compute the SMP parameters Q and H from the
	// history windows.
	QHTime time.Duration
	// TotalTime additionally includes solving Equation (3) for TR.
	TotalTime time.Duration
	// Ops is the solver's multiply-accumulate count.
	Ops int64
	// TR is the computed reliability (to keep the work observable).
	TR float64
}

// RunF4 measures prediction cost on one machine's weekday history for
// windows starting at 08:00. It returns the rows and the fitted power-law
// exponent of total time vs. window length (the paper reports 1.85).
func RunF4(m *trace.Machine, cfg avail.Config, hours []float64) ([]F4Row, float64, error) {
	days := m.DaysOfType(trace.Weekday)
	if len(days) == 0 {
		return nil, 0, fmt.Errorf("experiments: no weekday history")
	}
	period := m.Period
	var rows []F4Row
	for _, h := range hours {
		w, ok := windowFor(8, h)
		if !ok {
			continue
		}
		units := w.Units(period)

		// Phase 1: Q and H (sojourn extraction + kernel estimation).
		startQH := time.Now()
		var seqs [][]avail.Sojourn
		for _, d := range days {
			seqs = append(seqs, avail.ExtractSojourns(d.Window(w.Start, w.Length), cfg, period))
		}
		kernel, err := smp.Estimator{Horizon: units}.Estimate(seqs)
		if err != nil {
			return nil, 0, err
		}
		qhTime := time.Since(startQH)

		// Phase 2: the TR solve.
		res, err := kernel.Solve(avail.S1, units)
		if err != nil {
			return nil, 0, err
		}
		total := time.Since(startQH)
		rows = append(rows, F4Row{WindowHours: h, QHTime: qhTime, TotalTime: total, Ops: res.Ops, TR: res.TR})
	}
	var xs, ys []float64
	for _, r := range rows {
		xs = append(xs, r.WindowHours)
		ys = append(ys, float64(r.TotalTime))
	}
	exp, err := stats.PowerLawExponent(xs, ys)
	if err != nil {
		exp = 0
	}
	return rows, exp, nil
}

// ------------------------------------------------------------------ F5 ----

// F5Row is one point of Figure 5: relative TR prediction error for a window
// length, aggregated over start times (0:00-23:00) and machines.
type F5Row struct {
	WindowHours float64
	Err         stats.Summary
	// Windows is how many (machine, start) windows contributed; Skipped
	// counts windows dropped because they do not fit in a day, have no
	// usable test days, or have an empirical TR of zero (the relative
	// error is undefined there).
	Windows, Skipped int
}

// F5Config tunes the accuracy sweep.
type F5Config struct {
	Cfg          avail.Config
	DayType      trace.DayType
	LengthsHours []float64
	StartHours   []int
	// TrainParts and TestParts set the split ratio (paper default 1:1;
	// Figure 6 sweeps it).
	TrainParts, TestParts int
}

// DefaultF5Config mirrors the paper: all 24 start times, the standard
// lengths, a 50/50 chronological split.
func DefaultF5Config(t trace.DayType) F5Config {
	starts := make([]int, 24)
	for i := range starts {
		starts[i] = i
	}
	return F5Config{
		Cfg:          avail.DefaultConfig(),
		DayType:      t,
		LengthsHours: DefaultLengthsHours,
		StartHours:   starts,
		TrainParts:   1,
		TestParts:    1,
	}
}

// RunF5 reproduces Figure 5: for every machine and start time it trains the
// SMP predictor on the first part of the trace and scores the relative TR
// error on the rest. The per-machine evaluations run across the package's
// worker pool (parallelFor); outputs are merged in machine order, so the
// summary statistics are bit-identical to a serial run.
func RunF5(ds *trace.Dataset, cfg F5Config) ([]F5Row, error) {
	if len(ds.Machines) == 0 {
		return nil, fmt.Errorf("experiments: empty dataset")
	}
	p := predict.SMP{Cfg: cfg.Cfg}
	// The chronological split depends only on the machine and the ratio —
	// compute it once instead of once per window length.
	splits := make([]trace.Split, len(ds.Machines))
	for mi, m := range ds.Machines {
		sp, err := trace.SplitRatio(m, cfg.DayType, cfg.TrainParts, cfg.TestParts)
		if err != nil {
			return nil, err
		}
		splits[mi] = sp
	}
	var rows []F5Row
	type machineOut struct {
		errs    []float64
		skipped int
	}
	for _, h := range cfg.LengthsHours {
		outs := make([]machineOut, len(ds.Machines))
		parallelFor(len(ds.Machines), func(mi int) {
			out := &outs[mi]
			for _, start := range cfg.StartHours {
				w, ok := windowFor(float64(start), h)
				if !ok {
					out.skipped++
					continue
				}
				ev, err := predict.EvaluateSMP(p, splits[mi], w)
				if err != nil || ev.TREmp == 0 {
					out.skipped++
					continue
				}
				out.errs = append(out.errs, ev.RelErr)
			}
		})
		var errs []float64
		skipped := 0
		for _, out := range outs {
			errs = append(errs, out.errs...)
			skipped += out.skipped
		}
		rows = append(rows, F5Row{WindowHours: h, Err: stats.Summarize(errs), Windows: len(errs), Skipped: skipped})
	}
	return rows, nil
}

// ------------------------------------------------------------------ F6 ----

// F6Row is one point of Figure 6: error statistics for one train:test ratio.
type F6Row struct {
	TrainParts, TestParts int
	// MaxAvg is the maximum over window lengths of the average error
	// ("max-average error over 240 time windows").
	MaxAvg float64
	// Max is the overall maximum error.
	Max float64
}

// RunF6 reproduces Figure 6: the Figure 5 weekday sweep at training ratios
// 1:9 through 9:1.
func RunF6(ds *trace.Dataset, cfg avail.Config, lengthsHours []float64) ([]F6Row, error) {
	var rows []F6Row
	for train := 1; train <= 9; train++ {
		fcfg := DefaultF5Config(trace.Weekday)
		fcfg.Cfg = cfg
		fcfg.LengthsHours = lengthsHours
		fcfg.TrainParts, fcfg.TestParts = train, 10-train
		f5, err := RunF5(ds, fcfg)
		if err != nil {
			return nil, err
		}
		row := F6Row{TrainParts: train, TestParts: 10 - train}
		for _, r := range f5 {
			if r.Err.Mean > row.MaxAvg {
				row.MaxAvg = r.Err.Mean
			}
			if r.Windows > 0 && r.Err.Max > row.Max {
				row.Max = r.Err.Max
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ------------------------------------------------------------------ F7 ----

// F7Row is one curve of Figure 7: the maximum prediction error of one
// algorithm across machines, per window length.
type F7Row struct {
	Model string
	// MaxErr[i] corresponds to LengthsHours[i]; NaN-free: windows with
	// undefined error are skipped.
	MaxErr []float64
}

// F7Config tunes the comparison.
type F7Config struct {
	Cfg          avail.Config
	StartHour    int
	LengthsHours []float64
}

// DefaultF7Config mirrors the paper's representative case: windows starting
// at 08:00 on weekdays.
func DefaultF7Config() F7Config {
	return F7Config{Cfg: avail.DefaultConfig(), StartHour: 8, LengthsHours: DefaultLengthsHours}
}

// RunF7 reproduces Figure 7: SMP versus the Table 1 linear time-series
// models, scored by the maximum relative error across machines. Machines are
// evaluated in parallel; the max-reduction runs serially in machine order.
func RunF7(ds *trace.Dataset, cfg F7Config) ([]F7Row, error) {
	if len(ds.Machines) == 0 {
		return nil, fmt.Errorf("experiments: empty dataset")
	}
	smpPred := predict.SMP{Cfg: cfg.Cfg}
	suite := timeseries.ReferenceSuite()
	rows := []F7Row{{Model: smpPred.Name(), MaxErr: make([]float64, len(cfg.LengthsHours))}}
	for _, f := range suite {
		rows = append(rows, F7Row{Model: f.Name(), MaxErr: make([]float64, len(cfg.LengthsHours))})
	}
	// The weekday half split depends only on the machine.
	splits := make([]trace.Split, len(ds.Machines))
	for mi, m := range ds.Machines {
		sp, err := trace.SplitHalf(m, trace.Weekday)
		if err != nil {
			return nil, err
		}
		splits[mi] = sp
	}
	for li, h := range cfg.LengthsHours {
		w, ok := windowFor(float64(cfg.StartHour), h)
		if !ok {
			continue
		}
		// outs[mi][0] is the SMP error, outs[mi][1+fi] the fi-th model's;
		// -1 marks an unusable window (errors are non-negative).
		outs := make([][]float64, len(ds.Machines))
		parallelFor(len(ds.Machines), func(mi int) {
			errs := make([]float64, 1+len(suite))
			for i := range errs {
				errs[i] = -1
			}
			sp := splits[mi]
			if ev, err := predict.EvaluateSMP(smpPred, sp, w); err == nil && ev.TREmp > 0 {
				errs[0] = ev.RelErr
			}
			for fi, f := range suite {
				ts := predict.TimeSeries{Cfg: cfg.Cfg, Fitter: f}
				if ev, err := predict.EvaluateTimeSeries(ts, sp, w); err == nil && ev.TREmp > 0 {
					errs[1+fi] = ev.RelErr
				}
			}
			outs[mi] = errs
		})
		for _, errs := range outs {
			for ri := range rows {
				if errs[ri] > rows[ri].MaxErr[li] {
					rows[ri].MaxErr[li] = errs[ri]
				}
			}
		}
	}
	return rows, nil
}

// ------------------------------------------------------------------ F8 ----

// F8Row is one noise level of Figure 8.
type F8Row struct {
	Noise int
	// Discrepancy[i] is the relative difference between the noisy and
	// clean predictions for LengthsHours[i].
	Discrepancy []float64
}

// F8Config tunes the robustness study.
type F8Config struct {
	Cfg          avail.Config
	StartHour    int
	LengthsHours []float64
	NoiseCounts  []int
	Spec         trace.NoiseSpec
	// HistoryDays is the N of "most recent N weekdays" the SMP estimator
	// pools; the injections target exactly those days.
	HistoryDays int
	Seed        uint64
}

// DefaultF8Config mirrors the paper: unavailability occurrences inserted
// around 08:00 am — when unavailability is otherwise very rare — into
// weekday training logs, holding times U[60 s, 1800 s], 0-10 instances,
// predictions over windows starting at 08:00.
func DefaultF8Config() F8Config {
	return F8Config{
		Cfg:          avail.DefaultConfig(),
		StartHour:    8,
		LengthsHours: DefaultLengthsHours,
		NoiseCounts:  []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Spec: trace.NoiseSpec{
			// Strictly inside the evaluated windows: starts in
			// (8:02, 8:18), holding 60-1800 s.
			Around: 8*time.Hour + 10*time.Minute,
			Jitter: 8 * time.Minute,
		},
		HistoryDays: 10,
		Seed:        7,
	}
}

// RunF8 reproduces Figure 8 on one machine: inject noise into the most
// recent weekday training logs and measure the prediction discrepancy
// against the clean prediction.
func RunF8(m *trace.Machine, cfg F8Config) ([]F8Row, error) {
	sp, err := trace.SplitHalf(m, trace.Weekday)
	if err != nil {
		return nil, err
	}
	p := predict.SMP{Cfg: cfg.Cfg, HistoryDays: cfg.HistoryDays}
	clean := make([]float64, len(cfg.LengthsHours))
	for li, h := range cfg.LengthsHours {
		w, ok := windowFor(float64(cfg.StartHour), h)
		if !ok {
			return nil, fmt.Errorf("experiments: window %vh at %d:00 does not fit", h, cfg.StartHour)
		}
		pred, err := p.Predict(sp.Train, w)
		if err != nil {
			return nil, err
		}
		clean[li] = pred.TR
	}
	var rows []F8Row
	for _, count := range cfg.NoiseCounts {
		noisy := trace.CloneDays(sp.Train)
		// Target the most recent days — the ones inside the predictor's
		// history horizon.
		target := predict.RecentDays(noisy, cfg.HistoryDays)
		r := rng.New(cfg.Seed).SplitN("noise", count)
		if _, err := trace.InjectNoise(target, count, cfg.Spec, r); err != nil {
			return nil, err
		}
		row := F8Row{Noise: count, Discrepancy: make([]float64, len(cfg.LengthsHours))}
		for li, h := range cfg.LengthsHours {
			w, _ := windowFor(float64(cfg.StartHour), h)
			pred, err := p.Predict(noisy, w)
			if err != nil {
				return nil, err
			}
			row.Discrepancy[li] = stats.RelativeError(pred.TR, clean[li])
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ------------------------------------------------------------------ S6 ----

// S6Row summarizes one machine's unavailability statistics (Section 6.1).
type S6Row struct {
	MachineID string
	Days      int
	Events    int
	ByState   map[avail.State]int
}

// RunS6 counts unavailability occurrences per machine.
func RunS6(ds *trace.Dataset, cfg avail.Config) []S6Row {
	var rows []S6Row
	for _, m := range ds.Machines {
		row := S6Row{MachineID: m.ID, Days: len(m.Days), ByState: map[avail.State]int{}}
		for _, d := range m.Days {
			for _, e := range avail.Events(d, cfg) {
				row.Events++
				row.ByState[e.State]++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// ------------------------------------------------------------------ S7 ----

// S7Result reports the monitoring overhead (Section 7.1).
type S7Result struct {
	// PerSample is the mean cost of one sampling tick (source read +
	// recording + heartbeat-free path).
	PerSample time.Duration
	// PeriodFraction is PerSample divided by the sampling period: the
	// monitor's CPU overhead (paper: < 1%).
	PeriodFraction float64
	Samples        int
}

// RunS7 measures the cost of the monitor's sampling path against an
// in-memory recorder.
func RunS7(samples int, period time.Duration) (S7Result, error) {
	if samples <= 0 {
		return S7Result{}, fmt.Errorf("experiments: need positive sample count")
	}
	rec := monitor.NewRecorder("overhead-test", period, 0)
	mon, err := monitor.New(monitor.Config{Period: period}, monitor.StaticSource{CPU: 25, FreeMemMB: 300}, rec)
	if err != nil {
		return S7Result{}, err
	}
	base := time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)
	start := time.Now()
	for i := 0; i < samples; i++ {
		mon.Tick(base.Add(time.Duration(i) * period))
	}
	elapsed := time.Since(start)
	per := elapsed / time.Duration(samples)
	return S7Result{
		PerSample:      per,
		PeriodFraction: float64(per) / float64(period),
		Samples:        samples,
	}, nil
}
