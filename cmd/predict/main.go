// Command predict computes the temporal reliability of machines in a trace
// file over a future time window, using the paper's semi-Markov predictor:
//
//	predict -trace testbed.trace -start 8h -length 2h
//	predict -trace testbed.trace -machine lab-03 -start 9h30m -length 5h -daytype weekend
//
// It prints TR per machine along with the empirical TR of the same window
// measured over the history, so predictions can be sanity-checked at a
// glance. A window past midnight is clipped there, as a served query-tr's
// is, and the window printed is the one answered for.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/predict"
	"fgcs/internal/trace"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "trace file (required)")
		machine   = flag.String("machine", "", "machine id (default: all)")
		start     = flag.Duration("start", 8*time.Hour, "window start offset from midnight")
		length    = flag.Duration("length", 2*time.Hour, "window length")
		dayType   = flag.String("daytype", "weekday", "weekday or weekend")
		histDays  = flag.Int("history", 0, "most recent N days to pool (0 = all)")
		guestMem  = flag.Float64("mem", 100, "guest working set in MB (S4 threshold)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "prediction worker pool size")
	)
	flag.Parse()
	if err := run(os.Stdout, *traceFile, *machine, *start, *length, *dayType, *histDays, *guestMem, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, traceFile, machine string, start, length time.Duration, dayType string, histDays int, guestMem float64, workers int) error {
	if traceFile == "" {
		return fmt.Errorf("-trace is required")
	}
	if start < 0 || start >= 24*time.Hour || length <= 0 {
		return fmt.Errorf("window %v+%v: want a start inside the day and a positive length", start, length)
	}
	var dt trace.DayType
	switch dayType {
	case "weekday":
		dt = trace.Weekday
	case "weekend":
		dt = trace.Weekend
	default:
		return fmt.Errorf("unknown day type %q", dayType)
	}
	ds, err := trace.LoadFile(traceFile)
	if err != nil {
		return err
	}
	if len(ds.Machines) == 0 {
		return fmt.Errorf("trace file has no machines")
	}
	_, w := predict.WindowAt(time.Time{}.Add(start), length, ds.Machines[0].Period)
	cfg := avail.DefaultConfig()
	cfg.GuestMemMB = guestMem
	fmt.Fprintf(out, "window %v on %ss, guest working set %g MB\n", w, dt, guestMem)
	fmt.Fprintf(out, "%-10s %-10s %-12s %-10s %s\n", "machine", "TR", "TR(S1)/(S2)", "emp TR", "history")
	// Fan the per-machine predictions across the engine's worker pool;
	// results come back in request order, so the report is stable.
	var selected []*trace.Machine
	var reqs []predict.BatchRequest
	for _, m := range ds.Machines {
		if machine != "" && m.ID != machine {
			continue
		}
		selected = append(selected, m)
		reqs = append(reqs, predict.BatchRequest{Machine: m.ID, History: m.DaysOfType(dt), Window: w})
	}
	p := predict.SMP{Cfg: cfg, HistoryDays: histDays}
	engine := predict.NewEngine(predict.EngineConfig{Workers: workers})
	for i, res := range engine.PredictBatch(p, reqs) {
		m := selected[i]
		if res.Err != nil {
			return fmt.Errorf("%s: %w", m.ID, res.Err)
		}
		pred := res.Prediction
		emp, n := predict.EmpiricalTR(m.DaysOfType(dt), w, cfg)
		fmt.Fprintf(out, "%-10s %-10.4f %.3f/%.3f  %-10.4f %d windows, %d days\n",
			m.ID, pred.TR, pred.TRByInit[0], pred.TRByInit[1], emp, pred.HistoryWindows, n)
	}
	return nil
}
