package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestRunEnsemble(t *testing.T) {
	ok := `BenchmarkQueryTREnsemble/single-8    100000  5000 ns/op  3600 B/op  3 allocs/op
BenchmarkQueryTREnsemble/ensemble-8  100000  5400 ns/op  3600 B/op  3 allocs/op
`
	var stderr strings.Builder
	if err := runEnsemble(strings.NewReader(ok), 0.10, &stderr); err != nil {
		t.Fatalf("8%% overhead rejected at 10%% tolerance: %v\n%s", err, stderr.String())
	}

	slow := `BenchmarkQueryTREnsemble/single-8    100000  5000 ns/op
BenchmarkQueryTREnsemble/ensemble-8  100000  6000 ns/op
`
	stderr.Reset()
	if err := runEnsemble(strings.NewReader(slow), 0.10, &stderr); err == nil {
		t.Fatal("20% overhead accepted at 10% tolerance")
	}
	if !strings.Contains(stderr.String(), "FAIL") {
		t.Fatalf("no FAIL line in stderr: %s", stderr.String())
	}

	missing := `BenchmarkQueryTRTracing/off-8  100000  5000 ns/op
`
	if err := runEnsemble(strings.NewReader(missing), 0.10, &stderr); err == nil {
		t.Fatal("input without the pair accepted")
	}
}

// ensemblePairs renders one single/ensemble line pair per ratio, in the order
// repeated `-test.count 1` runs print them.
func ensemblePairs(ratios ...float64) string {
	var b strings.Builder
	for _, r := range ratios {
		fmt.Fprintf(&b, "BenchmarkQueryTREnsemble/single-2    100000  5000 ns/op  3600 B/op  3 allocs/op\n")
		fmt.Fprintf(&b, "BenchmarkQueryTREnsemble/ensemble-2  100000  %.0f ns/op  3600 B/op  3 allocs/op\n", 5000*r)
	}
	return b.String()
}

func TestRunEnsembleMedianOfPairs(t *testing.T) {
	cases := []struct {
		name   string
		input  string
		passes bool
	}{
		{"15% slower in every pair", ensemblePairs(1.15, 1.15, 1.15, 1.15, 1.15, 1.15, 1.15, 1.15, 1.15, 1.15), false},
		// Ten pairs scattered around 1.0 with two far out: the median of the
		// pairs is 1.03.
		{"scattered around 1.0", ensemblePairs(0.91, 1.30, 1.02, 0.97, 1.06, 1.25, 0.95, 1.04, 0.99, 1.08), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			err := runEnsemble(strings.NewReader(tc.input), 0.10, &stderr)
			if (err == nil) != tc.passes {
				t.Fatalf("passes = %v, want %v: %v\n%s", err == nil, tc.passes, err, stderr.String())
			}
		})
	}
}

func TestRunEnsembleUnequalPairs(t *testing.T) {
	in := ensemblePairs(1, 1) + "BenchmarkQueryTREnsemble/single-2  100000  5000 ns/op\n"
	var stderr strings.Builder
	if err := runEnsemble(strings.NewReader(in), 0.10, &stderr); err == nil || !strings.Contains(err.Error(), "equal counts") {
		t.Fatalf("unequal single/ensemble counts not refused: %v", err)
	}
}
