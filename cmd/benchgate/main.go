// Command benchgate holds the repository's two benchmark gates. Each reads
// one input (-in, default stdin) and exits non-zero on a violation.
//
// With -fleet the input is a cmd/fleetsim report: the gate requires a
// failure-free run, steady memory at or under -max-bytes-per-machine and
// throughput of at least -min-predictions-per-sec, then compares both
// figures against a recorded BENCH_fleet_base.json within -tolerance. A
// baseline whose sim or perf section lacks a key the report emits is
// refused, so a base recorded by older code cannot pass a newer run:
//
//	fleetsim -machines 100000 -out .bench_build/fleet.json
//	benchgate -fleet -in .bench_build/fleet.json -baseline BENCH_fleet_base.json
//
// Fleet mode also bounds the observability plane's cost: the share of run
// wall time spent in SLO sampling, detector steps and federated metric
// merges must stay under -max-obs-cost-fraction (default 2%).
//
// With -slo the input is an `isharec stats -json` snapshot or a fleetsim
// report, and the gate fails when any declared serving-path SLO reports a
// violated QPS floor, p99 ceiling, or error-budget burn rate:
//
//	isharec -registry localhost:7000 stats -json | benchgate -slo
//	fleetsim -out report.json && benchgate -slo -in report.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var (
		in        = flag.String("in", "-", "input file (- = stdin)")
		baseline  = flag.String("baseline", "BENCH_fleet_base.json", "fleet mode: baseline report")
		write     = flag.Bool("write", false, "fleet mode: rewrite the baseline from the current run instead of comparing")
		tolerance = flag.Float64("tolerance", 0.10, "fleet mode: allowed fractional regression of throughput and memory against the baseline")

		fleet      = flag.Bool("fleet", false, "gate a fleetsim report")
		maxPerMach = flag.Float64("max-bytes-per-machine", 48*1024, "fleet mode: allowed steady memory per machine (bytes)")
		minPredSec = flag.Float64("min-predictions-per-sec", 2500, "fleet mode: required prediction throughput")
		maxObsCost = flag.Float64("max-obs-cost-fraction", 0.02, "fleet mode: allowed share of run wall time spent in the observability plane")

		slo = flag.Bool("slo", false, "gate SLO statuses: every slo in the input (isharec stats -json or a fleetsim report) must report ok")
	)
	flag.Parse()
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	var err error
	switch {
	case *fleet:
		err = runFleet(r, *baseline, *write, *tolerance, *maxPerMach, *minPredSec, *maxObsCost, os.Stderr)
	case *slo:
		err = runSLO(r, os.Stderr)
	default:
		err = fmt.Errorf("choose a gate: -fleet or -slo")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
