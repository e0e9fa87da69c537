package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// runEnsemble gates the ensemble serving path against the single-predictor
// path: the i-th BenchmarkQueryTREnsemble/single line is paired with the i-th
// BenchmarkQueryTREnsemble/ensemble line, and the median of the per-pair
// ensemble/single ns/op ratios must stay within the tolerance above 1. The
// two halves of a pair run back to back in one process, so a change in the
// host's speed between runs moves both and cancels out of the ratio; the
// median keeps one pair that straddles such a change from deciding the gate.
func runEnsemble(in io.Reader, tolerance float64, stderr io.Writer) error {
	results, err := parseBench(in)
	if err != nil {
		return err
	}
	var single, ens []float64
	for _, r := range results {
		if !strings.Contains(r.Name, "QueryTREnsemble") {
			continue
		}
		switch {
		case strings.Contains(r.Name, "/single"):
			single = append(single, r.NsPerOp)
		case strings.Contains(r.Name, "/ensemble"):
			ens = append(ens, r.NsPerOp)
		}
	}
	if len(single) == 0 || len(ens) == 0 {
		return fmt.Errorf("input lacks the BenchmarkQueryTREnsemble single/ensemble pair (run go test -bench QueryTREnsemble)")
	}
	if len(single) != len(ens) {
		return fmt.Errorf("input holds %d single and %d ensemble lines; pairs need equal counts", len(single), len(ens))
	}
	ratios := make([]float64, len(single))
	for i := range single {
		if single[i] <= 0 {
			return fmt.Errorf("single-predictor run %d reported non-positive latency %.1f ns/op", i+1, single[i])
		}
		ratios[i] = ens[i] / single[i]
	}
	sort.Float64s(ratios)
	n := len(ratios)
	median := (ratios[(n-1)/2] + ratios[n/2]) / 2
	summary := fmt.Sprintf("median ensemble/single ratio %.3f over %d pair(s) (range %.3f–%.3f, allowed %.3f)",
		median, n, ratios[0], ratios[n-1], 1+tolerance)
	if median > 1+tolerance {
		fmt.Fprintln(stderr, "benchgate: FAIL: ensemble query path:", summary)
		return fmt.Errorf("ensemble serving-path gate violation")
	}
	fmt.Fprintln(stderr, "benchgate: OK:", summary)
	return nil
}
