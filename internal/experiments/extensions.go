package experiments

// Extension experiments beyond the paper's figures: the scheduling benefit
// its introduction motivates (X1), the sensitivity to the history-day pool
// N (X2, a companion to Figure 6), and the enterprise-desktop profile the
// paper names as future work (X3).

import (
	"fmt"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/predict"
	"fgcs/internal/rng"
	"fgcs/internal/stats"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

// ------------------------------------------------------------------ X1 ----

// X1Row reports one placement policy's outcome over the job stream.
type X1Row struct {
	Policy string
	// Completed and Killed count job outcomes.
	Completed, Killed int
	// WastedHours is the compute lost to kills.
	WastedHours float64
}

// X1Config tunes the scheduling study.
type X1Config struct {
	Cfg avail.Config
	// HistoryDays is how many days of log back the first placement.
	HistoryDays int
	// JobHours is the guest jobs' length.
	JobHours int
	// StartHours are the submission times per test day.
	StartHours []int
	Seed       uint64
}

// DefaultX1Config mirrors the motivating scenario: 3-hour compute jobs
// submitted through the day.
func DefaultX1Config() X1Config {
	return X1Config{
		Cfg:         avail.DefaultConfig(),
		HistoryDays: 45,
		JobHours:    3,
		StartHours:  []int{9, 13, 17},
		Seed:        11,
	}
}

// RunX1 quantifies the benefit the paper's introduction promises: proactive,
// prediction-driven job placement versus prediction-oblivious baselines.
// Four policies place the identical job stream on the identical recorded
// futures:
//
//	oracle:      picks a machine whose window actually survives (upper bound);
//	tr-aware:    picks the machine with the highest predicted TR;
//	round-robin: cycles through machines;
//	random:      uniform choice.
func RunX1(ds *trace.Dataset, cfg X1Config) ([]X1Row, error) {
	if len(ds.Machines) < 2 {
		return nil, fmt.Errorf("experiments: X1 needs at least two machines")
	}
	days := len(ds.Machines[0].Days)
	if cfg.HistoryDays >= days {
		return nil, fmt.Errorf("experiments: history (%d) swallows the trace (%d days)", cfg.HistoryDays, days)
	}
	p := predict.SMP{Cfg: cfg.Cfg}
	r := rng.New(cfg.Seed)
	rows := []X1Row{{Policy: "oracle"}, {Policy: "tr-aware"}, {Policy: "round-robin"}, {Policy: "random"}}
	rr := 0
	for dayIdx := cfg.HistoryDays; dayIdx < days; dayIdx++ {
		if ds.Machines[0].Days[dayIdx].Type() != trace.Weekday {
			continue
		}
		// Each machine's weekday history up to this day is shared by all of
		// the day's submissions.
		hists := make([][]*trace.Day, len(ds.Machines))
		for mi, m := range ds.Machines {
			for _, d := range m.Days[:dayIdx] {
				if d.Type() == trace.Weekday {
					hists[mi] = append(hists[mi], d)
				}
			}
		}
		for _, hour := range cfg.StartHours {
			w, ok := windowFor(float64(hour), float64(cfg.JobHours))
			if !ok {
				continue
			}
			// Ground truth per machine.
			survives := make([]bool, len(ds.Machines))
			for mi, m := range ds.Machines {
				day := m.Days[dayIdx]
				survives[mi] = avail.WindowSurvives(day.Window(w.Start, w.Length), cfg.Cfg, day.Period)
			}
			// Policy picks.
			oracle := -1
			for mi, ok := range survives {
				if ok {
					oracle = mi
					break
				}
			}
			if oracle < 0 {
				oracle = 0 // no machine survives: the oracle fails too
			}
			// The tr-aware scheduler queries every machine at once, across
			// the package's worker pool; the strict > keeps the
			// first-best-machine tie-breaking of a serial loop, and a
			// machine whose prediction fails is passed over.
			trs := make([]float64, len(ds.Machines))
			parallelFor(len(ds.Machines), func(mi int) {
				trs[mi] = -1
				if pred, err := p.Predict(hists[mi], w); err == nil {
					trs[mi] = pred.TR
				}
			})
			best, bestTR := 0, -1.0
			for mi, tr := range trs {
				if tr > bestTR {
					best, bestTR = mi, tr
				}
			}
			picks := []int{oracle, best, rr % len(ds.Machines), r.Intn(len(ds.Machines))}
			rr++
			for pi, pick := range picks {
				if survives[pick] {
					rows[pi].Completed++
				} else {
					rows[pi].Killed++
					// Chargeable waste: on average half the job ran
					// before the kill.
					rows[pi].WastedHours += float64(cfg.JobHours) / 2
				}
			}
		}
	}
	return rows, nil
}

// HeterogeneousTestbed generates a testbed whose machines differ in how
// heavily they are used (different activity scales), the situation in which
// availability-aware placement actually has something to choose between.
// The scheduler sees only the monitor histories, never the scales.
func HeterogeneousTestbed(days int, scales []float64, seed uint64) (*trace.Dataset, error) {
	ds := &trace.Dataset{}
	for i, scale := range scales {
		p := workload.DefaultParams()
		p.Machines = 1
		p.Days = days
		p.Seed = seed + uint64(i)*7919
		p.ActivityScale = scale
		one, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		one.Machines[0].ID = fmt.Sprintf("lab-%02d", i+1)
		ds.Machines = append(ds.Machines, one.Machines[0])
	}
	return ds, nil
}

// DefaultTestbedScales is the X1 machine mix: two busy machines near the
// door, two normal, two quiet corner machines.
var DefaultTestbedScales = []float64{1.5, 1.3, 1.0, 1.0, 0.5, 0.35}

// ------------------------------------------------------------------ X2 ----

// X2Row reports accuracy for one history-pool size N.
type X2Row struct {
	// HistoryDays is N (0 = all available training days).
	HistoryDays int
	// AvgErr and MaxErr summarize the relative TR error over the window set.
	AvgErr, MaxErr float64
	Windows        int
}

// RunX2 sweeps the "most recent N same-type days" pool size of Section 4.2
// — the knob the paper leaves implicit — over the Figure 5 weekday window
// set (a trimmed start grid keeps it tractable).
func RunX2(ds *trace.Dataset, cfg avail.Config, pools []int, lengthsHours []float64) ([]X2Row, error) {
	starts := []int{0, 4, 8, 12, 16, 20}
	// The weekday half split depends only on the machine, not the pool size.
	splits := make([]trace.Split, len(ds.Machines))
	for mi, m := range ds.Machines {
		sp, err := trace.SplitHalf(m, trace.Weekday)
		if err != nil {
			return nil, err
		}
		splits[mi] = sp
	}
	var rows []X2Row
	for _, n := range pools {
		p := predict.SMP{Cfg: cfg, HistoryDays: n}
		outs := make([][]float64, len(ds.Machines))
		parallelFor(len(ds.Machines), func(mi int) {
			for _, h := range lengthsHours {
				for _, start := range starts {
					w, ok := windowFor(float64(start), h)
					if !ok {
						continue
					}
					ev, err := predict.EvaluateSMP(p, splits[mi], w)
					if err != nil || ev.TREmp == 0 {
						continue
					}
					outs[mi] = append(outs[mi], ev.RelErr)
				}
			}
		})
		var errs []float64
		for _, out := range outs {
			errs = append(errs, out...)
		}
		s := stats.Summarize(errs)
		rows = append(rows, X2Row{HistoryDays: n, AvgErr: s.Mean, MaxErr: s.Max, Windows: s.N})
	}
	return rows, nil
}

// ------------------------------------------------------------------ X3 ----

// X3Row is one accuracy row of the enterprise-profile study.
type X3Row struct {
	Profile     string
	WindowHours float64
	AvgErr      float64
	Windows     int
}

// RunX3 reproduces the paper's future-work expectation (Section 8): the
// prediction should also perform well on "a testbed containing enterprise
// desktop resources". It generates both testbed profiles with otherwise
// identical settings and runs the Figure 5 accuracy methodology on the
// windows where guest jobs would actually be placed — start times inside
// working hours (enterprise desktops are powered off overnight, so windows
// anchored there have no recoverable start and windows crossing the daily
// shutdown have an empirical TR pinned at 0).
func RunX3(machines, days int, seed uint64, lengthsHours []float64) ([]X3Row, error) {
	var rows []X3Row
	for _, profile := range []workload.Profile{workload.ProfileLab, workload.ProfileEnterprise} {
		p := workload.DefaultParams()
		p.Machines = machines
		p.Days = days
		p.Seed = seed
		p.Profile = profile
		ds, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		cfg := DefaultF5Config(trace.Weekday)
		cfg.LengthsHours = lengthsHours
		cfg.StartHours = []int{9, 10, 11, 12, 13}
		f5, err := RunF5(ds, cfg)
		if err != nil {
			return nil, err
		}
		for _, r := range f5 {
			rows = append(rows, X3Row{
				Profile:     profile.String(),
				WindowHours: r.WindowHours,
				AvgErr:      r.Err.Mean,
				Windows:     r.Windows,
			})
		}
	}
	return rows, nil
}

// ------------------------------------------------------------------ X5 ----

// X5Row is one checkpoint interval's outcome over X5's job stream. X5 runs
// in cmd/experiments beside X4, because both replay jobs through fgcssim and
// the ishare runtime, which this package of offline sweeps does not import;
// the row lives here for the scorecard. Wall time is the response, whose
// replay pays each checkpoint's compute; Lost is what kills threw away.
type X5Row struct {
	Policy                              string
	Interval, MeanWall, WorstWall, Lost time.Duration
	Completed, Kills, Checkpoints       int
}
