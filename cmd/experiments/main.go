// Command experiments regenerates every table and figure of the paper's
// evaluation (Sections 3.2, 6.1 and 7) on the synthetic testbed trace:
//
//	experiments -run all            # every experiment (under a minute)
//	experiments -run f5 -machines 6 # one figure
//	experiments -run f7 -trace t.bin
//	experiments -run claims         # the scorecard EXPERIMENTS.md embeds
//
// Output is a plain-text table per experiment; the scorecard judges the
// paper's claims on them (internal/experiments.Claims).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/experiments"
	"fgcs/internal/fgcssim"
	"fgcs/internal/host"
	"fgcs/internal/predict"
	"fgcs/internal/stats"
	"fgcs/internal/trace"
	"fgcs/internal/txtplot"
	"fgcs/internal/workload"
)

// experiment is one row of the registry: what -run selects by id, the header
// its table prints under, whether it reads the testbed trace, and the run,
// which prints the table and leaves the result in env.res for the scorecard.
type experiment struct {
	id, title  string
	needsTrace bool
	run        func(*env) error
}

var registry = []experiment{
	{"e1", "E1: CPU contention (Section 3.2.1) — reduction rate of host CPU usage", false, runE1},
	{"e1b", "E1b: guest-priority policy alternatives (Section 3.2.1)", false, runE1b},
	{"e2", "E2: CPU + memory contention (Section 3.2.2)", false, runE2},
	{"f4", "F4: prediction cost vs window length (Figure 4)", true, runF4},
	{"f5", "F5 (%s): relative error of predicted TR (Figure 5)", true, runF5},
	{"f6", "F6: error vs training:test ratio, weekdays (Figure 6)", true, runF6},
	{"f7", "F7: SMP vs linear time-series models, max error, 08:00 weekdays (Figure 7)", true, runF7},
	{"f8", "F8: prediction discrepancy under injected noise (Figure 8)", true, runF8},
	{"s6", "S6: unavailability occurrences per machine (Section 6.1)", true, runS6},
	{"s7", "S7: resource monitoring overhead (Section 7.1)", false, runS7},
	{"x1", "X1 (extension): proactive TR-aware scheduling vs oblivious placement", true, runX1},
	{"x2", "X2 (extension): sensitivity to the history pool size N (Section 4.2)", true, runX2},
	{"x3", "X3 (future work, Section 8): accuracy on an enterprise-desktop testbed", false, runX3},
	{"x4", "X4 (extension): end-to-end job response time under each placement policy", false, runX4},
	{"x5", "X5 (extension): checkpoint intervals sized from the predicted TR vs blind ones", false, runX5},
}

// env is what a run reads and writes.
type env struct {
	out            io.Writer
	title          string
	ds             *trace.Dataset // nil unless a selected experiment needs it
	cfg            avail.Config
	machines, days int
	seed           uint64
	quick          bool
	res            experiments.Results
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

// feeds reports whether the scorecard reads claim c off x's result: the
// claim's id starts with the experiment's.
func (x experiment) feeds(c experiments.Claim) bool {
	return strings.HasPrefix(strings.ToLower(c.ID), x.id+"-")
}

// valid lists the -run values: every experiment, the scorecard (the
// experiments it reads run first, their tables discarded), or one registry id.
func valid() string {
	ids := "all, claims"
	for _, x := range registry {
		ids += ", " + x.id
	}
	return ids
}

func main() {
	var (
		run      = flag.String("run", "all", "experiment id: "+valid())
		machines = flag.Int("machines", 6, "machines in the generated trace")
		days     = flag.Int("days", 90, "days in the generated trace")
		seed     = flag.Uint64("seed", 1, "generator seed")
		traceIn  = flag.String("trace", "", "load a trace file instead of generating")
		quick    = flag.Bool("quick", false, "smaller designs for a fast smoke run")
		workers  = flag.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()
	experiments.SetWorkers(*workers)
	if _, err := realMain(os.Stdout, *run, *machines, *days, *seed, *traceIn, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// realMain runs what -run selects, printing to out, and returns the results
// the runs left behind. Under "claims" the experiments' own tables are
// discarded and out receives the scorecard alone.
func realMain(out io.Writer, run string, machines, days int, seed uint64, traceIn string, quick bool) (*experiments.Results, error) {
	var rows []experiment
	for _, x := range registry {
		if run == "all" || run == x.id || run == "claims" && slices.ContainsFunc(experiments.Claims, x.feeds) {
			rows = append(rows, x)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s)", run, valid())
	}
	var err error
	e := &env{out: out, cfg: avail.DefaultConfig(), machines: machines, days: days, seed: seed, quick: quick}
	if run == "claims" {
		e.out = io.Discard
	}
	if slices.ContainsFunc(rows, func(x experiment) bool { return x.needsTrace }) {
		if e.ds, err = loadOrGenerate(traceIn, machines, days, seed, quick); err != nil {
			return nil, err
		}
		e.printf("# trace: %d machines x %d days (%d machine-days)\n\n",
			len(e.ds.Machines), len(e.ds.Machines[0].Days), e.ds.MachineDays())
	}
	for _, x := range rows {
		e.title = x.title
		if !strings.Contains(x.title, "%") {
			e.printf("== %s ==\n", x.title)
		}
		if err := x.run(e); err != nil {
			return nil, fmt.Errorf("%s: %w", x.id, err)
		}
	}
	if run == "claims" {
		scale := fmt.Sprintf("%d machines × %d days, seed %d", len(e.ds.Machines), len(e.ds.Machines[0].Days), seed)
		if quick {
			scale += ", every design at its -quick size"
		}
		fmt.Fprint(out, experiments.Scorecard(&e.res, scale))
	}
	return &e.res, nil
}

func runX4(e *env) error {
	days, nJobs := e.days, 100
	if e.quick {
		days, nJobs = 35, 20
	}
	if days < 28 {
		days = 28
	}
	het, err := experiments.HeterogeneousTestbed(days, experiments.DefaultTestbedScales, e.seed+500)
	if err != nil {
		return err
	}
	startDay := days / 2
	jobs, err := fgcssim.PoissonJobs(nJobs, het, startDay, e.seed+1)
	if err != nil {
		return err
	}
	e.printf("%d jobs on %d machines over %d test days (response time is the paper's primary metric)\n",
		len(jobs), len(het.Machines), days-startDay)
	e.printf("%-13s %-11s %-14s %-14s %-7s %s\n", "policy", "completed", "mean response", "p95 response", "kills", "lost compute")
	for _, pol := range []fgcssim.Policy{fgcssim.PolicyTRAware, fgcssim.PolicyRoundRobin, fgcssim.PolicyRandom} {
		cfg := fgcssim.Config{
			Dataset:  het,
			Cfg:      avail.DefaultConfig(),
			StartDay: startDay,
			Policy:   pol,
			Seed:     e.seed + 2,
		}
		res, err := fgcssim.Run(cfg, jobs)
		if err != nil {
			return err
		}
		e.printf("%-13v %-11d %-14v %-14v %-7d %v\n",
			pol, res.CompletedJobs, res.MeanResponse.Round(time.Second), res.P95Response.Round(time.Second),
			res.TotalKills, res.TotalLost.Round(time.Minute))
	}
	e.printf("\n")
	return nil
}

// X5's job of 100 MB, submitted at 08:00.
const x5Start, x5Work = 8 * time.Hour, 4 * time.Hour

// runX5 is the proactive job management the paper's prediction is for (§1,
// §8): X5's job on each test weekday of one busy machine, so placement has no
// choice, under four checkpoint intervals: the job's work (restart), two fixed
// ones and x5Interval's. Wall time is the response, whose replay pays every
// checkpoint's cost.
func runX5(e *env) error {
	p := workload.DefaultParams()
	p.Machines, p.Days, p.Seed, p.ActivityScale = 1, max(e.days, 28), e.seed, 1.3
	if e.quick {
		p.Days = 28
	}
	ds, err := workload.Generate(p)
	if err != nil {
		return err
	}
	m, startDay := ds.Machines[0], p.Days*2/3
	var jobs []fgcssim.JobSpec
	for d := startDay; d < p.Days-2; d++ {
		if day := m.Days[d]; day.Type() == trace.Weekday {
			jobs = append(jobs, fgcssim.JobSpec{ID: fmt.Sprintf("day-%02d", d), Arrival: day.Date.Add(x5Start), Work: x5Work, MemMB: 100})
		}
	}
	adaptive, tr, err := x5Interval(m, startDay, e.cfg)
	if err != nil {
		return err
	}
	w := predict.Window{Start: x5Start, Length: x5Work}
	e.printf("a 100 MB job over %v on each of %d weekdays from day %d of %s (%d days, activity x%.1f); a checkpoint costs %v of compute\n",
		w, len(jobs), startDay, m.ID, p.Days, p.ActivityScale, fgcssim.CheckpointCost)
	e.printf("predicted TR of %v over the weekdays before day %d: %.3f -> Young/Daly interval %v\n", w, startDay, tr, adaptive)
	e.printf("%-13s %-10s %-11s %-11s %-11s %-7s %-13s %s\n", "policy", "interval", "completed", "mean wall", "worst wall", "kills", "checkpoints", "lost compute")
	for _, row := range []experiments.X5Row{
		{Policy: "restart", Interval: x5Work},
		{Policy: "fixed-15m", Interval: 15 * time.Minute},
		{Policy: "fixed-2h", Interval: 2 * time.Hour},
		{Policy: "tr-adaptive", Interval: adaptive},
	} {
		res, err := fgcssim.Run(fgcssim.Config{Dataset: ds, Cfg: e.cfg, StartDay: startDay,
			Policy: fgcssim.PolicyRoundRobin, CheckpointInterval: row.Interval, Seed: e.seed}, jobs)
		if err != nil {
			return err
		}
		var total time.Duration
		for _, jr := range res.Jobs {
			if jr.Completed {
				total += jr.Response
				row.WorstWall = max(row.WorstWall, jr.Response)
				row.Completed++
			}
		}
		row.MeanWall = total / time.Duration(max(row.Completed, 1))
		row.Kills, row.Checkpoints, row.Lost = res.TotalKills, res.TotalCheckpoints, res.TotalLost
		e.res.X5 = append(e.res.X5, row)
		e.printf("%-13s %-10v %-11s %-11v %-11v %-7d %-13d %v\n", row.Policy, row.Interval,
			fmt.Sprintf("%d/%d", row.Completed, len(jobs)), row.MeanWall.Round(time.Minute), row.WorstWall.Round(time.Minute),
			row.Kills, row.Checkpoints, row.Lost.Round(time.Minute))
	}
	e.printf("\n")
	return nil
}

// x5Interval is the Young/Daly interval sqrt(2 C / lambda), with the failure
// rate lambda = -ln(TR) / W read off the SMP's predicted TR of X5's window
// over the weekdays before startDay only: the history a scheduler has when
// the first test job arrives. It also returns that TR.
func x5Interval(m *trace.Machine, startDay int, cfg avail.Config) (time.Duration, float64, error) {
	var hist []*trace.Day
	for _, d := range m.Days[:startDay] {
		if d.Type() == trace.Weekday {
			hist = append(hist, d)
		}
	}
	pr, err := predict.SMP{Cfg: cfg}.Predict(hist, predict.Window{Start: x5Start, Length: x5Work})
	if err != nil {
		return 0, 0, err
	}
	if pr.TR >= 0.999 {
		return x5Work, pr.TR, nil // failures too rare to pay for a checkpoint
	}
	lambda := -math.Log(max(pr.TR, 1e-6)) / x5Work.Hours() // failures per hour
	iv := time.Duration(math.Sqrt(2*fgcssim.CheckpointCost.Hours()/lambda) * float64(time.Hour)).Round(time.Minute)
	return min(max(iv, 5*time.Minute), x5Work), pr.TR, nil
}

func runX3(e *env) error {
	machines, days := e.machines, e.days
	if e.quick {
		machines, days = 2, 28
	}
	// Working-hour placements: lengths that fit inside a 9:00-17:00 day.
	lengths := []float64{1, 2, 3, 5}
	rows, err := experiments.RunX3(machines, days, e.seed, lengths)
	if err != nil {
		return err
	}
	e.printf("%-12s %-8s %-10s %s\n", "profile", "hours", "avg err%", "windows")
	for _, r := range rows {
		e.printf("%-12s %-8.0f %-10.2f %d\n", r.Profile, r.WindowHours, 100*r.AvgErr, r.Windows)
	}
	e.printf("\n")
	return nil
}

func runX1(e *env) error {
	// X1 uses its own heterogeneous testbed: availability-aware placement
	// only has something to choose between when machines differ.
	days := len(e.ds.Machines[0].Days)
	het, err := experiments.HeterogeneousTestbed(days, experiments.DefaultTestbedScales, e.seed+99)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultX1Config()
	if cfg.HistoryDays >= days {
		cfg.HistoryDays = days / 2
	}
	e.printf("heterogeneous testbed: %d machines (activity scales %v), %d days\n",
		len(het.Machines), experiments.DefaultTestbedScales, days)
	rows, err := experiments.RunX1(het, cfg)
	if err != nil {
		return err
	}
	e.printf("%-13s %-11s %-8s %-10s %s\n", "policy", "completed", "killed", "success%", "wasted compute")
	for _, r := range rows {
		total := r.Completed + r.Killed
		e.printf("%-13s %-11d %-8d %-10.1f %.0f h\n",
			r.Policy, r.Completed, r.Killed, 100*float64(r.Completed)/float64(total), r.WastedHours)
	}
	e.printf("\n")
	return nil
}

func runX2(e *env) error {
	lengths := []float64{1, 3, 10}
	pools := []int{2, 5, 10, 20, 0}
	if e.quick {
		lengths = []float64{1, 3}
		pools = []int{2, 10, 0}
	}
	rows, err := experiments.RunX2(e.ds, e.cfg, pools, lengths)
	if err != nil {
		return err
	}
	e.printf("%-10s %-10s %-10s %s\n", "N days", "avg err%", "max err%", "windows")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.HistoryDays)
		if r.HistoryDays == 0 {
			label = "all"
		}
		e.printf("%-10s %-10.2f %-10.2f %d\n", label, 100*r.AvgErr, 100*r.MaxErr, r.Windows)
	}
	e.printf("\n")
	return nil
}

func loadOrGenerate(path string, machines, days int, seed uint64, quick bool) (*trace.Dataset, error) {
	if path != "" {
		return trace.LoadFile(path)
	}
	p := workload.DefaultParams()
	p.Machines = machines
	p.Days = days
	p.Seed = seed
	if quick {
		if p.Machines > 2 {
			p.Machines = 2
		}
		if p.Days > 28 {
			p.Days = 28
		}
	}
	return workload.Generate(p)
}

func runE1(e *env) error {
	cfg := host.DefaultE1Config()
	if e.quick {
		cfg.GroupSizes = []int{1, 3}
		cfg.Trials = 2
		cfg.Duration = 5 * time.Minute
	}
	res, err := host.RunE1(cfg)
	if err != nil {
		return err
	}
	e.res.E1 = res
	for _, nice := range []int{0, 19} {
		e.printf("guest priority nice=%d\n", nice)
		e.printf("  %-8s", "L_H%")
		for _, size := range cfg.GroupSizes {
			e.printf("size=%-6d", size)
		}
		e.printf("\n")
		for ti := range cfg.Targets {
			curve0 := res.Curves[nice][cfg.GroupSizes[0]]
			e.printf("  %-8.1f", curve0[ti].IsolatedCPU)
			for _, size := range cfg.GroupSizes {
				e.printf("%-10.2f", 100*res.Curves[nice][size][ti].Reduction)
			}
			e.printf("\n")
		}
	}
	e.printf("derived thresholds: Th1=%.0f%% Th2=%.0f%% (paper: 20%%, 60%%)\n\n", res.Th1, res.Th2)
	return nil
}

func runE1b(e *env) error {
	targets := []float64{0.10, 0.30, 0.50, 0.70, 0.90}
	trials, dur := 4, 12*time.Minute
	if e.quick {
		trials, dur = 2, 5*time.Minute
	}
	rows, err := host.RunE1b(host.DefaultMachine(), targets, trials, dur, 2)
	if err != nil {
		return err
	}
	e.res.E1b = rows
	e.printf("%-15s %-8s %-12s %-10s %s\n", "policy", "L_H%", "reduction%", "guest%", "mean nice")
	for _, r := range rows {
		e.printf("%-15v %-8.0f %-12.2f %-10.1f %.1f\n",
			r.Policy, r.IsolatedCPU, 100*r.Reduction, r.GuestCPU, r.MeanNice)
	}
	e.printf("conclusion: gradual priorities track the two-threshold scheme (redundant);\n")
	e.printf("the two thresholds reflect the availability levels without over-restriction.\n\n")
	return nil
}

func runE2(e *env) error {
	cfg := host.DefaultE2Config()
	if e.quick {
		cfg.Duration = 4 * time.Minute
	}
	cells, err := host.RunE2(cfg)
	if err != nil {
		return err
	}
	e.res.E2 = cells
	e.printf("%-14s %-14s %-5s %-8s %-10s %s\n", "guest", "host", "nice", "L_H%", "reduction%", "thrashing")
	for _, c := range cells {
		e.printf("%-14s %-14s %-5d %-8.1f %-10.2f %v\n",
			c.Guest, c.Host, c.GuestNice, c.HostIsolatedCPU, 100*c.Reduction, c.Thrashing)
	}
	e.printf("\n")
	return nil
}

func runF4(e *env) (err error) {
	hours := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if e.res.F4, e.res.F4Exponent, err = experiments.RunF4(e.ds.Machines[0], e.cfg, hours); err != nil {
		return err
	}
	e.printf("%-10s %-14s %-14s %-12s %s\n", "hours", "Q+H time", "total time", "solver ops", "TR")
	for _, r := range e.res.F4 {
		e.printf("%-10.1f %-14v %-14v %-12d %.4f\n", r.WindowHours, r.QHTime, r.TotalTime, r.Ops, r.TR)
	}
	e.printf("power-law exponent of total time: %.2f (paper: 1.85)\n\n", e.res.F4Exponent)
	return nil
}

func runF5(e *env) error {
	for _, dt := range []trace.DayType{trace.Weekday, trace.Weekend} {
		e.printf("== "+e.title+" ==\n", dt)
		fcfg := experiments.DefaultF5Config(dt)
		fcfg.Cfg = e.cfg
		rows, err := experiments.RunF5(e.ds, fcfg)
		if err != nil {
			return err
		}
		e.res.F5[dt] = rows
		e.printf("%-8s %-10s %-10s %-10s %-9s %s\n", "hours", "avg err%", "min err%", "max err%", "windows", "skipped")
		var labels []string
		var avg, max []float64
		for _, r := range rows {
			e.printf("%-8.0f %-10.2f %-10.2f %-10.2f %-9d %d\n",
				r.WindowHours, 100*r.Err.Mean, 100*r.Err.Min, 100*r.Err.Max, r.Windows, r.Skipped)
			labels = append(labels, fmt.Sprintf("%gh", r.WindowHours))
			avg = append(avg, 100*r.Err.Mean)
			max = append(max, 100*r.Err.Max)
		}
		e.printf("\n%s\n", txtplot.Chart("relative error (%) vs window length", labels, []txtplot.Series{
			{Name: "avg", Y: avg},
			{Name: "max", Y: max},
		}, 10))
	}
	return nil
}

func runF6(e *env) (err error) {
	lengths := experiments.DefaultLengthsHours
	if e.quick {
		lengths = []float64{1, 3}
	}
	if e.res.F6, err = experiments.RunF6(e.ds, e.cfg, lengths); err != nil {
		return err
	}
	e.printf("%-8s %-14s %s\n", "ratio", "max-avg err%", "max err%")
	best := e.res.F6[0]
	for _, r := range e.res.F6 {
		e.printf("%d:%-6d %-14.2f %.2f\n", r.TrainParts, r.TestParts, 100*r.MaxAvg, 100*r.Max)
		if r.MaxAvg < best.MaxAvg {
			best = r
		}
	}
	e.printf("sweet spot: %d:%d (paper: 6:4)\n\n", best.TrainParts, best.TestParts)
	return nil
}

func runF7(e *env) (err error) {
	cfg := experiments.DefaultF7Config()
	if e.res.F7, err = experiments.RunF7(e.ds, cfg); err != nil {
		return err
	}
	e.printf("%-12s", "model")
	var labels []string
	for _, h := range cfg.LengthsHours {
		labels = append(labels, fmt.Sprintf("%gh", h))
		e.printf("%-9s", labels[len(labels)-1])
	}
	e.printf("\n")
	var series []txtplot.Series
	for _, r := range e.res.F7 {
		e.printf("%-12s", r.Model)
		ys := make([]float64, len(r.MaxErr))
		for i, v := range r.MaxErr {
			e.printf("%-9.1f", 100*v)
			ys[i] = 100 * v
		}
		e.printf("\n")
		series = append(series, txtplot.Series{Name: r.Model, Y: ys})
	}
	e.printf("\n%s\n", txtplot.Chart("max relative error (%) vs window length", labels, series, 12))
	return nil
}

func runF8(e *env) (err error) {
	cfg := experiments.DefaultF8Config()
	if e.res.F8, err = experiments.RunF8(e.ds.Machines[0], cfg); err != nil {
		return err
	}
	e.printf("%-7s", "noise")
	for _, h := range cfg.LengthsHours {
		e.printf("%-9s", fmt.Sprintf("T=%gh", h))
	}
	e.printf("\n")
	for _, r := range e.res.F8 {
		e.printf("%-7d", r.Noise)
		for _, d := range r.Discrepancy {
			e.printf("%-9.2f", 100*d)
		}
		e.printf("\n")
	}
	e.printf("\n")
	return nil
}

func runS6(e *env) error {
	e.res.S6 = experiments.RunS6(e.ds, e.cfg)
	e.printf("%-10s %-6s %-8s %-6s %-6s %s\n", "machine", "days", "events", "S3", "S4", "S5")
	var counts []float64
	for _, r := range e.res.S6 {
		e.printf("%-10s %-6d %-8d %-6d %-6d %d\n",
			r.MachineID, r.Days, r.Events, r.ByState[avail.S3], r.ByState[avail.S4], r.ByState[avail.S5])
		counts = append(counts, float64(r.Events))
	}
	s := stats.Summarize(counts)
	e.printf("range %.0f-%.0f, mean %.0f (paper: 405-453 over 90 days)\n\n", s.Min, s.Max, s.Mean)
	return nil
}

func runS7(e *env) (err error) {
	n := 200000
	if e.quick {
		n = 20000
	}
	if e.res.S7, err = experiments.RunS7(n, trace.DefaultPeriod); err != nil {
		return err
	}
	e.printf("per-sample cost: %v over %d samples\n", e.res.S7.PerSample, e.res.S7.Samples)
	e.printf("fraction of the 6 s period: %.6f%% (paper: < 1%%)\n\n", 100*e.res.S7.PeriodFraction)
	return nil
}
