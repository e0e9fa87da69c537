package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Metrics hygiene: every metric registered on the obs registry must be
// auditable from the source alone. Names are string literals in
// fgcs_-prefixed snake_case, help text is a non-empty sentence ending in a
// period (it becomes the # HELP line operators read), and label keys that
// scale with the fleet — machine ids, job ids, peer addresses — are banned
// outright: one label value per machine turns a fixed-cardinality registry
// into an unbounded one and breaks the federated merge's size assumptions.
// The families obs derives at scrape time are rows of one []family table
// rather than registrations; the table is held to the same rules, except that
// a row may carry the machine label, which the tracker's retention bounds.

// metricFuncs are the registry registration methods audited for hygiene.
var metricFuncs = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// metricNameRE is the required shape of a metric name.
var metricNameRE = regexp.MustCompile(`^fgcs_[a-z0-9_]+$`)

// highCardLabelKeys are label keys whose cardinality grows with the fleet or
// the workload, never allowed on a registered series. Per-machine figures
// belong in the accuracy tracker (which has retention) or in logs.
var highCardLabelKeys = map[string]bool{
	"machine": true, "machine_id": true,
	"job": true, "job_id": true,
	"addr": true, "address": true,
	"trace": true, "trace_id": true, "span_id": true,
}

// metricsHygiene audits every Counter/Gauge/Histogram registration in the
// given package directories (tests excluded) and reports violations.
func metricsHygiene(dirs []string) ([]string, error) {
	var out []string
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgMap, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", dir, err)
		}
		for _, pkg := range pkgMap {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					if row, ok := n.(*ast.CompositeLit); ok {
						out = append(out, familyRowHygiene(fset, row)...)
						return true
					}
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) < 2 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !metricFuncs[sel.Sel.Name] {
						return true
					}
					pos := fset.Position(call.Pos())
					at := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)

					name, ok := stringLit(call.Args[0])
					if !ok {
						// Not a registration (or a computed name, which
						// defeats auditing). Only flag it when the second
						// argument looks like help text, so unrelated
						// methods that happen to be called Counter pass.
						if _, helpish := stringLit(call.Args[1]); helpish {
							out = append(out, fmt.Sprintf("%s: metric name is not a string literal", at))
						}
						return true
					}
					if !strings.HasPrefix(name, "fgcs_") {
						// A literal first arg without the prefix is some
						// other API (e.g. a map lookup); require the prefix
						// only once the call also carries literal help.
						if help, helpish := stringLit(call.Args[1]); !helpish || help == "" {
							return true
						}
					}
					out = append(out, nameHelpHygiene(at, name, call.Args[1])...)
					for _, arg := range call.Args {
						ast.Inspect(arg, func(m ast.Node) bool {
							lit, ok := m.(*ast.CompositeLit)
							if !ok || !isLabelType(lit.Type) {
								return true
							}
							if key, ok := labelKey(lit); ok && highCardLabelKeys[key] {
								out = append(out, fmt.Sprintf("%s: metric %s label key %q has per-machine cardinality; use the accuracy tracker or logs instead", at, name, key))
							}
							return true
						})
					}
					return true
				})
			}
		}
	}
	return out, nil
}

// nameHelpHygiene applies the name and help rules to one family.
func nameHelpHygiene(at, name string, helpExpr ast.Expr) []string {
	var out []string
	if !metricNameRE.MatchString(name) {
		out = append(out, fmt.Sprintf("%s: metric name %q is not fgcs_-prefixed snake_case", at, name))
	}
	help, ok := stringLit(helpExpr)
	if !ok {
		out = append(out, fmt.Sprintf("%s: metric %s help text is not a string literal", at, name))
	} else if help == "" || !strings.HasSuffix(help, ".") {
		out = append(out, fmt.Sprintf("%s: metric %s help text must be a sentence ending in a period", at, name))
	}
	return out
}

// familyRowHygiene audits a composite literal with name and help fields — a
// row of obs's derived-family table — by the registration rules, and its
// labels field against the high-cardinality keys other than machine.
func familyRowHygiene(fset *token.FileSet, row *ast.CompositeLit) []string {
	fields := map[string]ast.Expr{}
	for _, f := range row.Elts {
		if kv, ok := f.(*ast.KeyValueExpr); ok {
			fields[fmt.Sprint(kv.Key)] = kv.Value
		}
	}
	name, ok := stringLit(fields["name"])
	if !ok || fields["help"] == nil {
		return nil
	}
	pos := fset.Position(row.Pos())
	at := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	out := nameHelpHygiene(at, name, fields["help"])
	if labels, ok := fields["labels"].(*ast.CompositeLit); ok {
		for _, l := range labels.Elts {
			if key, ok := stringLit(l); !ok || key != "machine" && highCardLabelKeys[key] {
				out = append(out, fmt.Sprintf("%s: metric %s label key %q is not a literal or has unbounded cardinality", at, name, key))
			}
		}
	}
	return out
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// isLabelType matches the obs.Label composite literal type (qualified or
// package-local).
func isLabelType(t ast.Expr) bool {
	switch v := t.(type) {
	case *ast.Ident:
		return v.Name == "Label"
	case *ast.SelectorExpr:
		return v.Sel.Name == "Label"
	}
	return false
}

// labelKey extracts the Key field (or first positional field) of a Label
// literal when it is a string literal.
func labelKey(lit *ast.CompositeLit) (string, bool) {
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Key" {
				return stringLit(kv.Value)
			}
			continue
		}
		if i == 0 {
			return stringLit(el)
		}
	}
	return "", false
}
