package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// unwrittenBenchFiles reports every BENCH_*.json in dir that no recipe line of
// makefile writes: a recipe line names the file after -out or a shell >, or
// names it on a line that carries -write. A checked-in benchmark figure is
// then always one `make` target away from being reproduced at HEAD.
func unwrittenBenchFiles(dir, makefile string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(makefile)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", makefile, err)
	}
	var out []string
	for _, path := range files {
		name := filepath.Base(path)
		// The name as a whole word; group 1 holds a -out or > before it.
		named := regexp.MustCompile(`(?:(-out\s+|>\s*)|(?:^|[^\w./-]))` + regexp.QuoteMeta(name) + `(?:[^\w./-]|$)`)
		written := false
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.HasPrefix(line, "\t") {
				continue // not a recipe line
			}
			for _, m := range named.FindAllStringSubmatch(line, -1) {
				written = written || m[1] != "" || strings.Contains(line, " -write")
			}
		}
		if !written {
			out = append(out, fmt.Sprintf("%s: no %s recipe writes it; add the target that reproduces it at HEAD, or delete it", name, makefile))
		}
	}
	return out, nil
}
