package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFamilyRowHygiene holds the rows of a derived-family table to the
// registration rules: the machine label passes there, and only there.
func TestFamilyRowHygiene(t *testing.T) {
	src := `package x

var rows = []family{
	{name: "fgcs_ok", help: "Fine.", labels: []string{"machine", "predictor"}},
	{name: "plain_name", help: "Fine."},
	{name: "fgcs_no_period", help: "No period"},
	{name: "fgcs_per_addr", help: "Fine.", labels: []string{"addr"}},
}

func f(r *Registry) { r.Counter("fgcs_per_machine_total", "Fine.", Label{Key: "machine", Value: "m"}) }
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := metricsHygiene([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(problems, "\n")
	for _, want := range []string{`"plain_name" is not fgcs_-prefixed`, "fgcs_no_period help text", `fgcs_per_addr label key "addr"`, `fgcs_per_machine_total label key "machine"`} {
		if !strings.Contains(got, want) {
			t.Errorf("no problem mentions %q:\n%s", want, got)
		}
	}
	if len(problems) != 4 {
		t.Errorf("%d problems, want 4 (the fgcs_ok row is clean):\n%s", len(problems), got)
	}
}
