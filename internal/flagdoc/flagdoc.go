// Package flagdoc renders a command's flags as the markdown tables README.md
// keeps between markers, and holds README to them: a flag's meaning lives in
// its usage string, and the README row is generated from it. The flag-table
// tests of cmd/ishared, cmd/isharec and cmd/fleetsim call Check; `make
// golden` runs them and `make golden-update` runs them with -update, which
// rewrites the blocks.
package flagdoc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// flagRef is a flag named in a usage string ("-trace", "-ticks/2"), which a
// table cell sets in a code span. Usage strings carry no backquotes: the
// flag package would take the first quoted word for the argument's name.
var flagRef = regexp.MustCompile(`(^|[ (/])(-[a-z][a-z0-9-]*)`)

// Table renders flag sets as one markdown table: a row per distinct flag
// (name, default and usage), in the order the sets and then their flags
// come, a set's flags in name order as -help lists them. An empty default
// reads as a dash; a default computed at run time must be registered as a
// fixed word, so the table is the same on every host. With cmds, sets[i]
// holding the flags of subcommand cmds[i], a first column names every
// subcommand that takes the flag.
func Table(cmds []string, sets ...*flag.FlagSet) string {
	type taken struct {
		by    []string
		cells []string
	}
	var rows []*taken
	seen := map[[3]string]*taken{}
	for i, fs := range sets {
		fs.VisitAll(func(f *flag.Flag) {
			key := [3]string{f.Name, f.DefValue, f.Usage}
			if seen[key] == nil {
				def := "—"
				if f.DefValue != "" {
					def = "`" + f.DefValue + "`"
				}
				usage := flagRef.ReplaceAllString(strings.ReplaceAll(f.Usage, "|", `\|`), "$1`$2`")
				seen[key] = &taken{cells: []string{"`-" + f.Name + "`", def, usage}}
				rows = append(rows, seen[key])
			}
			if cmds != nil {
				seen[key].by = append(seen[key].by, cmds[i])
			}
		})
	}
	var b strings.Builder
	row := func(cells ...string) {
		if cmds != nil {
			b.WriteString("| " + cells[0] + " ")
		}
		b.WriteString("| " + strings.Join(cells[1:], " | ") + " |\n")
	}
	row("Command", "Flag", "Default", "Meaning")
	row("---", "---", "---", "---")
	for _, r := range rows {
		row(append([]string{strings.Join(r.by, ", ")}, r.cells...)...)
	}
	return b.String()
}

// Check fails t unless the block of the markdown file at path between
// `<!-- flags:name:begin -->` and `<!-- flags:name:end -->` is table, byte
// for byte; with update it rewrites the block instead.
func Check(t testing.TB, path, name, table string, update bool) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begin := fmt.Sprintf("<!-- flags:%s:begin -->\n", name)
	end := fmt.Sprintf("<!-- flags:%s:end -->", name)
	i, j := bytes.Index(doc, []byte(begin)), bytes.Index(doc, []byte(end))
	if i < 0 || j < i {
		t.Fatalf("%s has no %s… %s block", path, begin, end)
	}
	i += len(begin)
	if update {
		if err := os.WriteFile(path, slices.Concat(doc[:i], []byte(table), doc[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if got := string(doc[i:j]); got != table {
		t.Errorf("the %s flag table in %s is not what the flags register (make golden-update rewrites it)\n--- registered ---\n%s--- in %s ---\n%s", name, path, table, path, got)
	}
}
