package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fgcs/internal/fleetsim"
)

// The fleet gate's thresholds. No run sets them: a change to one is a change
// to the gate, made here.
const (
	// tolerance is the allowed fractional regression of throughput and
	// memory against the baseline.
	tolerance float64 = 0.10
	// maxBytesPerMachine is the allowed steady memory per machine.
	maxBytesPerMachine float64 = 48 * 1024
	// minPredictionsPerSec is the required prediction throughput.
	minPredictionsPerSec float64 = 2500
	// maxObsCostFraction is the allowed share of run wall time spent in
	// the observability plane (SLO sampling, detector steps, federated
	// merges).
	maxObsCostFraction float64 = 0.02
)

// obsCostFraction is the share of total run wall time spent in the
// observability plane.
func obsCostFraction(p fleetsim.PerfStats) float64 {
	if p.TotalSeconds <= 0 {
		return 0
	}
	return p.ObsPlaneSeconds / p.TotalSeconds
}

// bytesPerMachine prefers the OS view of memory and falls back to the Go
// heap where /proc is unavailable and RSS reads as zero.
func bytesPerMachine(p fleetsim.PerfStats) (float64, string) {
	if p.RSSBytesPerMachine > 0 {
		return p.RSSBytesPerMachine, "rss"
	}
	return p.HeapBytesPerMachine, "heap"
}

// missingKeys names, as "section.key" in sorted order, every key of the
// report's sim and perf sections that the baseline's lacks.
func missingKeys(report, baseline []byte) ([]string, error) {
	var rep, base map[string]map[string]json.RawMessage
	if err := json.Unmarshal(report, &rep); err != nil {
		return nil, fmt.Errorf("parsing fleetsim report: %w", err)
	}
	if err := json.Unmarshal(baseline, &base); err != nil {
		return nil, fmt.Errorf("parsing baseline: %w", err)
	}
	var missing []string
	for _, section := range []string{"sim", "perf"} {
		for k := range rep[section] {
			if _, ok := base[section][k]; !ok {
				missing = append(missing, section+"."+k)
			}
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// runFleet gates a fleetsim report: the run must be failure-free, steady
// per-machine memory must come in at or under maxBytesPerMachine, prediction
// throughput must reach minPredictionsPerSec, the observability plane must
// stay under maxObsCostFraction, and — against a recorded baseline —
// neither throughput nor memory may regress by more than the tolerance. A
// baseline that lacks a key the report emits is refused, and nothing is
// compared against it. With write set the report becomes the new baseline
// instead.
func runFleet(in io.Reader, baselinePath string, write bool, stderr io.Writer) error {
	raw, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	var rep fleetsim.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("parsing fleetsim report: %w", err)
	}
	if rep.Sim.Machines == 0 || rep.Sim.Queries == 0 {
		return fmt.Errorf("report describes no fleet traffic (run cmd/fleetsim first)")
	}

	var violations []string
	if rep.Sim.QueryFailures > 0 {
		violations = append(violations, fmt.Sprintf("%d of %d queries failed during the traffic phase",
			rep.Sim.QueryFailures, rep.Sim.Queries))
	}
	if rep.Sim.OutageFailures > 0 {
		violations = append(violations, fmt.Sprintf("%d of %d queries failed during the peer outage (replicas did not cover)",
			rep.Sim.OutageFailures, rep.Sim.OutageQueries))
	}
	mem, memSrc := bytesPerMachine(rep.Perf)
	if mem > maxBytesPerMachine {
		violations = append(violations, fmt.Sprintf("%s %.0f B/machine above allowed %.0f B/machine",
			memSrc, mem, maxBytesPerMachine))
	}
	if rep.Perf.PredictionsPerSec < minPredictionsPerSec {
		violations = append(violations, fmt.Sprintf("throughput %.0f predictions/s below required %.0f",
			rep.Perf.PredictionsPerSec, minPredictionsPerSec))
	}
	if cost := obsCostFraction(rep.Perf); cost > maxObsCostFraction {
		violations = append(violations, fmt.Sprintf("observability plane cost %.2f%% of run wall time above allowed %.2f%%",
			100*cost, 100*maxObsCostFraction))
	}

	if write {
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(stderr, "benchgate: FAIL:", v)
			}
			return fmt.Errorf("refusing to record a baseline from a failing run")
		}
		if err := os.WriteFile(baselinePath, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "benchgate: fleet baseline %s rewritten (%d machines, %.0f predictions/s, %s %.0f B/machine)\n",
			baselinePath, rep.Sim.Machines, rep.Perf.PredictionsPerSec, memSrc, mem)
		return nil
	}

	baseRaw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline (run with -write to create it): %w", err)
	}
	var base fleetsim.Report
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	missing, err := missingKeys(raw, baseRaw)
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		violations = append(violations, fmt.Sprintf("baseline %s lacks key(s) the report emits, so older code recorded it: %s (re-record with make bench-fleet-base)",
			baselinePath, strings.Join(missing, ", ")))
	} else {
		if base.Sim.Machines != rep.Sim.Machines {
			fmt.Fprintf(stderr, "benchgate: note: fleet size changed %d -> %d machines; per-machine figures still compared\n",
				base.Sim.Machines, rep.Sim.Machines)
		}
		if base.Perf.PredictionsPerSec > 0 && rep.Perf.PredictionsPerSec < base.Perf.PredictionsPerSec*(1-tolerance) {
			violations = append(violations, fmt.Sprintf("throughput %.0f predictions/s regressed more than %.0f%% below baseline %.0f",
				rep.Perf.PredictionsPerSec, tolerance*100, base.Perf.PredictionsPerSec))
		}
		baseMem, _ := bytesPerMachine(base.Perf)
		if baseMem > 0 && mem > baseMem*(1+tolerance) {
			violations = append(violations, fmt.Sprintf("memory %.0f B/machine regressed more than %.0f%% above baseline %.0f B/machine",
				mem, tolerance*100, baseMem))
		}
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, "benchgate: FAIL:", v)
		}
		return fmt.Errorf("%d fleet gate violation(s)", len(violations))
	}
	fmt.Fprintf(stderr, "benchgate: OK: fleet of %d machines at %.0f predictions/s, %s %.0f B/machine, within %.0f%% of baseline\n",
		rep.Sim.Machines, rep.Perf.PredictionsPerSec, memSrc, mem, tolerance*100)
	return nil
}
