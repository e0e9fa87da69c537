package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: fgcs
cpu: Some CPU @ 3.00GHz
BenchmarkEngineCachedVsCold/cold-8         	     100	  11830452 ns/op	 4511234 B/op	    8123 allocs/op
BenchmarkEngineCachedVsCold/warm-8         	 5065082	       237.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkPredictBatchParallel/serial-8     	      12	  95123456 ns/op
PASS
ok  	fgcs	12.345s
`

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	cold := byName["BenchmarkEngineCachedVsCold/cold-8"]
	if cold.NsPerOp != 11830452 || cold.AllocsPerOp != 8123 || !cold.HasAllocs {
		t.Fatalf("cold parsed wrong: %+v", cold)
	}
	warm := byName["BenchmarkEngineCachedVsCold/warm-8"]
	if warm.NsPerOp != 237.1 || warm.AllocsPerOp != 0 || !warm.HasAllocs {
		t.Fatalf("warm parsed wrong: %+v", warm)
	}
	serial := byName["BenchmarkPredictBatchParallel/serial-8"]
	if serial.NsPerOp != 95123456 || serial.HasAllocs {
		t.Fatalf("serial parsed wrong: %+v", serial)
	}
}

// TestParseBenchKeepsSubBenchSuffixes guards against "smart" suffix
// stripping: sub-benchmarks that differ only by a -N tag (workers-1,
// workers-2) must stay distinct.
func TestParseBenchKeepsSubBenchSuffixes(t *testing.T) {
	const out = `BenchmarkB/workers-1     	12	100 ns/op
BenchmarkB/workers-2     	12	90 ns/op
BenchmarkB/workers-4     	12	80 ns/op
`
	results, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.Name] = true
	}
	for _, want := range []string{"BenchmarkB/workers-1", "BenchmarkB/workers-2", "BenchmarkB/workers-4"} {
		if !names[want] {
			t.Fatalf("missing %q in parsed names %v", want, names)
		}
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok fgcs 1s\n")); err == nil {
		t.Fatal("no results accepted")
	}
}
