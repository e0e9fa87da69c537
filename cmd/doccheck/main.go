// Command doccheck is the repository's documentation linter, run by `make
// lint`. It enforces three freshness invariants that plain `go vet` does not:
//
//   - every exported symbol in the audited packages (auditedPkgs) carries a
//     doc comment, so `go doc` is never blank on API surface;
//   - every metric registered in the metric packages (metricPkgs), and every
//     row of a derived-family table there, is hygienic: a literal
//     fgcs_-prefixed snake_case name, help text that is a sentence ending in
//     a period, and no label key whose cardinality grows with the fleet
//     (machine ids, job ids, addresses), machine excepted in the table;
//   - every BENCH_*.json at the repository root is written by a Makefile
//     recipe, so no checked-in benchmark figure outlives the target that
//     reproduces it at HEAD.
//
// It also holds the audited exported-symbol total to maxExported, so the API
// surface can only shrink. It prints the exported-symbol count of each
// audited package, then one line per violation and exits non-zero if any
// were found, or else the total. It takes no flags; run it from the
// repository root:
//
//	go run ./cmd/doccheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
)

// maxExported is the ceiling on the exported symbols of the audited packages.
// Lower it when a change unexports or deletes API; a change that adds some
// must take as much away elsewhere.
const maxExported = 346

// auditedPkgs are the package directories audited for exported-symbol doc
// comments; their exported symbols are the API surface ROADMAP tracks.
var auditedPkgs = []string{"internal/ishare", "internal/predict", "internal/obs", "internal/otrace", "internal/fleetsim", "internal/wire"}

// metricPkgs are the package directories audited for metrics hygiene.
var metricPkgs = []string{"internal/ishare", "internal/predict", "internal/monitor", "internal/obs", "internal/fleetsim"}

func main() {
	var problems []string
	exported := 0
	for _, dir := range auditedPkgs {
		missing, n, err := missingDocs(dir)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, missing...)
		// The ROADMAP-tracked API surface, per package; `make loc` prints it.
		fmt.Printf("doccheck: %4d exported symbols in %s\n", n, dir)
		exported += n
	}
	if exported > maxExported {
		problems = append(problems, fmt.Sprintf("doccheck: %d exported symbols audited, above the ceiling of %d: unexport or delete what no other package calls", exported, maxExported))
	}
	metricProblems, err := metricsHygiene(metricPkgs)
	if err != nil {
		fatal(err)
	}
	problems = append(problems, metricProblems...)
	benchProblems, err := unwrittenBenchFiles(".", "Makefile")
	if err != nil {
		fatal(err)
	}
	problems = append(problems, benchProblems...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d exported symbols audited\n", exported)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doccheck:", err)
	os.Exit(1)
}

// missingDocs reports every exported symbol in dir (tests excluded) that
// lacks a doc comment: functions, methods on exported receivers, and the
// names declared by type/var/const specs. A parenthesized declaration
// block's doc comment covers all of its specs, matching godoc's rendering.
// The second result counts the exported symbols audited, documented or not.
func missingDocs(dir string) ([]string, int, error) {
	fset := token.NewFileSet()
	pkgMap, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, 0, fmt.Errorf("parse %s: %w", dir, err)
	}
	var out []string
	exported := 0
	audit := func(pos token.Pos, kind, name string, documented bool) {
		exported++
		if documented {
			return
		}
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgMap {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if recv, ok := receiverName(d); ok {
						// Methods on unexported types are not API surface.
						if ast.IsExported(recv) {
							audit(d.Pos(), "method", recv+"."+d.Name.Name, d.Doc != nil)
						}
					} else {
						audit(d.Pos(), "function", d.Name.Name, d.Doc != nil)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								audit(s.Pos(), "type", s.Name.Name, d.Doc != nil || s.Doc != nil || s.Comment != nil)
							}
						case *ast.ValueSpec:
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							for _, n := range s.Names {
								if n.IsExported() {
									audit(n.Pos(), kind, n.Name, d.Doc != nil || s.Doc != nil || s.Comment != nil)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out, exported, nil
}

// receiverName extracts the receiver's base type name from a method
// declaration ("*FedGateway" and "FedGateway" both yield "FedGateway").
func receiverName(d *ast.FuncDecl) (string, bool) {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "", false
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, true
	}
	return "", false
}
