package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnwrittenBenchFiles(t *testing.T) {
	cases := []struct {
		name, recipe string
		stray        bool
	}{
		{"written by -write", "\tbenchgate -fleet -in x.json -baseline BENCH_x.json -write\n", false},
		{"written by -out", "\tfleetsim -out BENCH_x.json\n", false},
		{"written by a redirect", "\tgo test -bench . >BENCH_x.json\n", false},
		{"written by a spaced redirect", "\tgo test -bench . > BENCH_x.json\n", false},
		{"only read", "\tbenchgate -fleet -in .bench_build/x.json -baseline BENCH_x.json\n", true},
		{"named outside a recipe", "# BENCH_x.json -write\n", true},
		{"a longer name written", "\tfleetsim -out BENCH_x.json.bak\n", true},
		{"a longer name rewritten", "\tbenchgate -fleet -baseline BENCH_x.json.bak -write\n", true},
		{"a file under another directory written", "\tfleetsim -out .bench_build/BENCH_x.json\n", true},
		{"no recipe at all", "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			makefile := filepath.Join(dir, "Makefile")
			if err := os.WriteFile(makefile, []byte("target:\n"+tc.recipe), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "BENCH_x.json"), []byte("{}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			problems, err := unwrittenBenchFiles(dir, makefile)
			if err != nil {
				t.Fatal(err)
			}
			if tc.stray != (len(problems) == 1) || len(problems) > 1 {
				t.Fatalf("problems = %v, want stray=%v", problems, tc.stray)
			}
			if tc.stray && !strings.Contains(problems[0], "BENCH_x.json") {
				t.Fatalf("problem does not name the file: %s", problems[0])
			}
		})
	}
}
