// Command bench is the repository's benchmark: four seeded,
// fixed-operation-count workloads driven through the public functions of
// internal/ishare, internal/predict, internal/durable, internal/monitor and
// friends. It prints every metric by name and unit, checks every answer, and
// in a separate traced run times calls into each layer from outside. See
// README.md in this directory.
//
//	bash bench/run.sh                                  all workloads, untraced
//	bash bench/run.sh -workload fit-churn -seed 2      one workload
//	bash bench/run.sh -trace 1                         per-layer numbers and the span file
//	bash bench/run.sh -aa                              two interleaved sets per workload, against the bounds
//	bash bench/run.sh -quick                           smoke run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long the timed
// repetitions of one run take on the reference box.
const defaultSeconds = 20

// aaRuns is the number of runs per set in -aa mode.
const aaRuns = 5

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all)")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "sizes the run: ops per repetition = nominal rate x seconds / repetitions")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and the span file, no end-to-end metrics")
		traceOut  = flag.String("trace-out", "", "span file of a traced run (default: bench-spans-<workload>-<seed>.json under os.TempDir())")
		aa        = flag.Bool("aa", false, "run every workload as two interleaved sets and compare their medians against the bounds")
		quick     = flag.Bool("quick", false, "smoke run: one short repetition per workload, checks on, no bounds")
		printSpec = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as this harness defines it and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *printSpec {
		os.Stdout.Write(benchmarkJSON(defaultSeconds))
		return
	}
	// nproc is 2 on the reference box; pinning keeps the run shape the same
	// wherever it runs.
	runtime.GOMAXPROCS(2)

	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []workloadSpec{w}
	}
	opts := runOptions{seed: *seed, seconds: *seconds, quick: *quick}

	switch {
	case *aa:
		ok, err := runAA(selected, opts)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *trace != 0:
		if *traceOut != "" && len(selected) > 1 {
			fatal(fmt.Errorf("-trace-out names one file: pick one workload with -workload"))
		}
		failed := false
		for _, w := range selected {
			path := *traceOut
			if path == "" {
				path = filepath.Join(os.TempDir(), fmt.Sprintf("bench-spans-%s-%d.json", w.Name, *seed))
			}
			res, err := runTraced(w, opts, path)
			if err != nil {
				fatal(err)
			}
			report(res)
			failed = failed || !res.correct()
		}
		if failed {
			os.Exit(1)
		}
	default:
		failed := false
		for _, w := range selected {
			res, err := runUntraced(w, opts)
			if err != nil {
				fatal(err)
			}
			report(res)
			failed = failed || !res.correct()
		}
		if failed {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// report prints a run three ways: the full result as one JSON object on one
// line, a table for people, and last the driver's result line.
func report(res *runResult) {
	full, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n\n", full)

	// The driver's line carries the gated end-to-end metrics of an untraced
	// run and the per-layer metrics of a traced one.
	shown := map[string]metricValue{}
	if res.Traced {
		shown = res.Layers
		fmt.Printf("traced run of %s, seed %d, spans in %s\n", res.Workload, res.Seed, res.TraceFile)
		fmt.Printf("%-30s %14s  %-6s %-14s %s\n", "layer metric", "value", "unit", "ladder", "should move")
		for _, l := range perLayer {
			fmt.Printf("%-30s %14.4f  %-6s %-14s %s\n", l.Name, shown[l.Name].Value, l.Unit, l.Workload, l.Moves)
		}
	} else {
		fmt.Printf("%s, seed %d: %d repetitions, timing from repetition %d (the fastest), host calibration %.1f ms\n",
			res.Workload, res.Seed, len(res.Reps), res.BestRep, res.CalibSpinMS)
		fmt.Printf("%-4s %9s %12s %12s %12s %12s %13s %11s\n", "rep", "wall_s", "ops_per_s", "op_p50_us", "op_p90_us", "op_p99_us", "cpu_us_per_op", "alloc_kb/op")
		for i, r := range res.Reps {
			fmt.Printf("%-4d %9.3f %12.2f %12.2f %12.2f %12.2f %13.3f %11.3f\n", i+1, r.WallS, r.OpsPerS, r.P50us, r.P90us, r.P99us, r.CPUusPerOp, r.AllocKBPerOp)
		}
		fmt.Printf("%-20s %14s  %-5s %-7s %s\n", "metric", "value", "unit", "better", "bound")
		for _, m := range endToEnd {
			shown[m.Name] = res.Metrics[m.Name]
			fmt.Printf("%-20s %14.4f  %-5s %-7s %.0f%%\n", m.Name, shown[m.Name].Value, m.Unit, m.Better, m.Bound*100)
		}
		for _, m := range timingMetrics {
			fmt.Printf("%-20s %14.4f  %-5s %-7s not gated\n", m.Name, res.Metrics[m.Name].Value, m.Unit, m.Better)
		}
	}
	fmt.Printf("operations attempted %d, failed %d, answers %s\n", res.OpsAttempted, res.OpsFailed, res.Answers)
	for _, note := range res.Notes {
		fmt.Println("CHECK FAILED:", note)
	}
	fmt.Println()

	attempted := res.OpsAttempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), attempted, res.OpsFailed, shown})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// runAA runs each workload as two interleaved sets of separate processes, A
// B A B ..., run i of either set on seed base+i, and prints per metric both
// medians, their disagreement, each set's quartile spread and the bound. It
// reports false when the disagreement of a gated metric exceeds its bound or
// the answers of two runs on the same seed differ.
func runAA(selected []workloadSpec, o runOptions) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range selected {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		answers := map[uint64]string{}
		for i := 0; i < aaRuns; i++ {
			for s := 0; s < 2; s++ {
				seed := o.seed + uint64(i)
				args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds)}
				if o.quick {
					args = append(args, "-quick")
				}
				cmd := exec.Command(exe, args...)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return false, fmt.Errorf("%s run %d%c: %w", w.Name, i+1, 'A'+s, err)
				}
				var res runResult
				first, _, _ := strings.Cut(string(out), "\n")
				if err := json.Unmarshal([]byte(first), &res); err != nil {
					return false, fmt.Errorf("%s run %d%c: result: %w", w.Name, i+1, 'A'+s, err)
				}
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
				if prev, seen := answers[seed]; seen && prev != res.Answers {
					fmt.Printf("CHECK FAILED: %s seed %d answered %s and %s\n", w.Name, seed, prev, res.Answers)
					ok = false
				}
				answers[seed] = res.Answers
				fmt.Fprintf(os.Stderr, "%s run %d%c done (calibration %.1f ms)\n", w.Name, i+1, 'A'+s, res.CalibSpinMS)
			}
		}
		fmt.Printf("%s: A/A over %d runs per set\n", w.Name, aaRuns)
		fmt.Printf("%-18s %14s %14s %9s %9s %9s %7s\n", "metric", "median A", "median B", "disagree", "spread A", "spread B", "bound")
		judge := func(m metricSpec, gated bool) {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := math.Abs(b-a) / a
			verdict := ""
			if worse > m.Bound && gated {
				verdict = "  EXCEEDS BOUND"
				ok = false
			} else if worse > m.Bound {
				verdict = "  exceeds bound (not gated)"
			}
			fmt.Printf("%-18s %14.4f %14.4f %8.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n", m.Name, a, b, worse*100,
				quartileSpread(sets[0][m.Name])*100, quartileSpread(sets[1][m.Name])*100, m.Bound*100, verdict)
		}
		for _, m := range endToEnd {
			judge(m, true)
		}
		for _, m := range timingMetrics {
			judge(m, false)
		}
		var seeds []string
		for seed := range answers {
			seeds = append(seeds, fmt.Sprint(seed))
		}
		sort.Strings(seeds)
		fmt.Printf("answers agreed between the two runs of seeds %s\n\n", strings.Join(seeds, " "))
	}
	return ok, nil
}
