// Command benchgate holds the repository's three benchmark gates. Each reads
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
//	isharec -fed localhost:7000 stats -json | benchgate -slo
//	fleetsim -out report.json && benchgate -slo -in report.json
//
// With -ensemble the input is go test -bench output carrying one or more
// runs of the BenchmarkQueryTREnsemble single/ensemble pair. The i-th
// single line is paired with the i-th ensemble line, and the median of the
// per-pair ensemble/single ratios must stay within -tolerance. Both halves of
// a pair run back to back in one process, so the ratio needs no recorded
// baseline and a change in the host's speed between runs cancels out:
//
//	for i in $(seq 10); do ./fgcs.test -test.run '^$' -test.bench QueryTREnsemble -test.count 1; done | benchgate -ensemble
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line of `go test -bench` output.
type Result struct {
	Name        string
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	// HasAllocs records whether the line carried -benchmem data.
	HasAllocs bool
}

// parseBench extracts every benchmark line from `go test -bench` output, in
// input order. Repeated runs of one benchmark stay separate lines, so a
// caller can pair measurements that were taken together. Names are kept
// verbatim, including any trailing -GOMAXPROCS tag, because sub-benchmarks
// may legitimately end in -N (workers-2, workers-4).
func parseBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		res := Result{Name: fields[0]}
		ok := false
		for i := 2; i+1 <= len(fields)-1; i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
				res.HasAllocs = true
			}
		}
		if ok {
			out = append(out, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark results found in input")
	}
	return out, nil
}

func main() {
	var (
		in        = flag.String("in", "-", "input file (- = stdin)")
		baseline  = flag.String("baseline", "BENCH_fleet_base.json", "fleet mode: baseline report")
		write     = flag.Bool("write", false, "fleet mode: rewrite the baseline from the current run instead of comparing")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional regression: fleet throughput and memory against the baseline, ensemble median ratio above 1")

		fleet      = flag.Bool("fleet", false, "gate a fleetsim report")
		maxPerMach = flag.Float64("max-bytes-per-machine", 48*1024, "fleet mode: allowed steady memory per machine (bytes)")
		minPredSec = flag.Float64("min-predictions-per-sec", 2500, "fleet mode: required prediction throughput")
		maxObsCost = flag.Float64("max-obs-cost-fraction", 0.02, "fleet mode: allowed share of run wall time spent in the observability plane")

		slo = flag.Bool("slo", false, "gate SLO statuses: every slo in the input (isharec stats -json or a fleetsim report) must report ok")

		ensemble = flag.Bool("ensemble", false, "gate the ensemble serving path: the median of BenchmarkQueryTREnsemble's per-run ensemble/single ratios must stay within -tolerance (same-run pairs, no baseline)")
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
	case *ensemble:
		err = runEnsemble(r, *tolerance, os.Stderr)
	default:
		err = fmt.Errorf("choose a gate: -fleet, -slo or -ensemble")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
