// Command doccheck is the repository's documentation linter, run by `make
// lint`. It enforces four freshness invariants that plain `go vet` does not:
//
//   - every exported symbol in the audited packages (-pkgs) carries a doc
//     comment, so `go doc` is never blank on API surface;
//   - every command-line flag registered by the audited binaries (-flagdirs)
//     is mentioned in the README flag reference (-readme) and every flag
//     table row there names a registered flag, so the operator docs can
//     neither fall behind the binaries nor outlive a deleted flag;
//   - every metric registered in the audited packages (-metricdirs), and
//     every row of a derived-family table there, is hygienic: a literal
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
// were found, or else the total.
//
//	go run ./cmd/doccheck
//	go run ./cmd/doccheck -pkgs internal/ishare -flagdirs cmd/ishared
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// maxExported is the ceiling on the exported symbols of the audited packages.
// Lower it when a change unexports or deletes API; a change that adds some
// must take as much away elsewhere.
const maxExported = 351

func main() {
	var (
		pkgs       = flag.String("pkgs", "internal/ishare,internal/predict,internal/obs,internal/otrace,internal/fleetsim,internal/wire", "comma-separated package directories audited for exported-symbol doc comments")
		flagDirs   = flag.String("flagdirs", "cmd/ishared,cmd/isharec,cmd/fleetsim", "comma-separated command directories whose registered flags must appear in the README")
		readme     = flag.String("readme", "README.md", "operator document that must mention every registered flag")
		metricDirs = flag.String("metricdirs", "internal/ishare,internal/predict,internal/monitor,internal/obs,internal/fleetsim", "comma-separated package directories audited for metrics hygiene")
	)
	flag.Parse()
	var problems []string
	exported := 0
	for _, dir := range strings.Split(*pkgs, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
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
	flagProblems, err := staleFlags(strings.Split(*flagDirs, ","), *readme)
	if err != nil {
		fatal(err)
	}
	problems = append(problems, flagProblems...)
	metricProblems, err := metricsHygiene(strings.Split(*metricDirs, ","))
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

// flagFuncs are the flag-registration methods whose (name, default, usage)
// signature identifies a flag definition regardless of the receiver — the
// global `flag` package or a per-subcommand FlagSet. Each one's Var form
// takes the same three after a destination pointer.
var flagFuncs = map[string]bool{
	"String": true, "Bool": true, "Int": true, "Int64": true,
	"Uint": true, "Uint64": true, "Float64": true, "Duration": true,
}

// flagRow matches one README flag-table row: "| `-name` | default | ...".
var flagRow = regexp.MustCompile("(?m)^\\| `-([\\w-]+)` \\|")

// staleFlags parses every non-test file in the given command directories,
// collects the name of each registered flag, and reports the ones the
// README never mentions (as `-name` inside a code span or slash-joined
// flag list), then the README flag-table rows whose flag none registers.
func staleFlags(dirs []string, readmePath string) ([]string, error) {
	readme, err := os.ReadFile(readmePath)
	if err != nil {
		return nil, err
	}
	var out []string
	registered := map[string]bool{}
	for _, dir := range dirs {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		fset := token.NewFileSet()
		pkgMap, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", dir, err)
		}
		names := map[string]bool{}
		for _, pkg := range pkgMap {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, isVar := strings.CutSuffix(sel.Sel.Name, "Var")
					nameArg := 0
					if isVar {
						nameArg = 1
					}
					if !flagFuncs[fn] || len(call.Args) != nameArg+3 {
						return true
					}
					lit, ok := call.Args[nameArg].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						return true
					}
					if name, err := strconv.Unquote(lit.Value); err == nil && name != "" {
						names[name] = true
					}
					return true
				})
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			registered[name] = true
			// Match -name after a backtick or a slash (the `-a/-b` list
			// style), not followed by more flag-name characters, so -retry
			// is not satisfied by -retry-base.
			re := regexp.MustCompile("[`/]-" + regexp.QuoteMeta(name) + `([^-\w]|$)`)
			if !re.Match(readme) {
				out = append(out, fmt.Sprintf("%s: flag -%s of %s is not documented in %s", dir, name, filepath.Base(dir), readmePath))
			}
		}
	}
	for _, m := range flagRow.FindAllSubmatch(readme, -1) {
		if name := string(m[1]); !registered[name] {
			out = append(out, fmt.Sprintf("%s: table row for flag -%s, which no audited command registers", readmePath, name))
		}
	}
	return out, nil
}
