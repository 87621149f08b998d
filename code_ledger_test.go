package dfdbm_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The code ledger is ROADMAP aim 2's instrument: the size of the
// codebase and of its option surface as committed numbers, so a PR's
// "net −N lines, −M flags" is a diff of CODE_ledger.json rather than
// prose. TestCodeLedger recomputes every row from the checkout and
// fails on any difference; after an intended change,
//
//	go test -run TestCodeLedger -update .
//
// rewrites the file. benchmark/ is its own module and is not counted.

const codeLedgerFile = "CODE_ledger.json"

var updateLedger = flag.Bool("update", false, "rewrite CODE_ledger.json from the checkout")

// ledgerStructs are the option structs whose fields the ledger lists.
var ledgerStructs = []struct{ dir, name string }{
	{"internal/server", "Config"},
	{"internal/core", "Options"},
	{"internal/machine", "Config"},
	{"internal/direct", "Config"},
	{"internal/wal", "Options"},
	{"internal/loadgen", "RunConfig"},
}

type codeLedger struct {
	// TotalLines and Lines count non-test Go lines that hold at least
	// one token (not blank, not comment-only), per package directory;
	// PhysicalLines counts every line of the same files, comments and
	// blanks included (what `wc -l` and `git diff --stat` see).
	TotalLines    int            `json:"total_lines"`
	PhysicalLines int            `json:"physical_lines"`
	Lines         map[string]int `json:"lines"`
	// CLIFlags lists every flag defined under cmd/dfdbm as "file:-name".
	CLIFlags []string `json:"cli_flags"`
	// OptionFields lists the fields of each ledgerStructs entry.
	OptionFields map[string][]string `json:"option_fields"`
	// RootExports lists the root package's exported top-level names and
	// the exported methods of its own types ("Type.Method").
	RootExports []string `json:"root_exports"`
	// ServingDeps lists the module packages internal/server reaches
	// through non-test imports: what the serving binary links.
	ServingDeps []string `json:"serving_deps"`
}

// simulatorPackages are the models of the paper's machines. They are
// experiment tools, and the serving path links none of them.
var simulatorPackages = []string{
	"dfdbm/internal/machine",
	"dfdbm/internal/direct",
	"dfdbm/internal/ringnet",
	"dfdbm/internal/sim",
	"dfdbm/internal/hw",
	"dfdbm/internal/fault",
}

// TestServerLinksNoSimulator reads the imports from the checkout, not
// from CODE_ledger.json, so a re-link fails here even after -update.
func TestServerLinksNoSimulator(t *testing.T) {
	deps, err := servingDeps(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range deps {
		if slices.Contains(simulatorPackages, dep) {
			t.Errorf("internal/server links the simulator package %s", dep)
		}
	}
}

func TestCodeLedger(t *testing.T) {
	got, err := readCodeLedger(".")
	if err != nil {
		t.Fatal(err)
	}
	if *updateLedger {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(codeLedgerFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d lines, %d flags, %d root exports", codeLedgerFile, got.TotalLines, len(got.CLIFlags), len(got.RootExports))
		return
	}
	b, err := os.ReadFile(codeLedgerFile)
	if err != nil {
		t.Fatal(err)
	}
	var want codeLedger
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", codeLedgerFile, err)
	}
	if reflect.DeepEqual(got, &want) {
		return
	}
	var d []string
	d = append(d, fmt.Sprintf("total_lines: %d -> %d (%+d)", want.TotalLines, got.TotalLines, got.TotalLines-want.TotalLines))
	d = append(d, fmt.Sprintf("physical_lines: %d -> %d (%+d)", want.PhysicalLines, got.PhysicalLines, got.PhysicalLines-want.PhysicalLines))
	for _, dir := range unionKeys(want.Lines, got.Lines) {
		if w, g := want.Lines[dir], got.Lines[dir]; w != g {
			d = append(d, fmt.Sprintf("lines %s: %d -> %d (%+d)", dir, w, g, g-w))
		}
	}
	d = append(d, listDelta("cli_flags", want.CLIFlags, got.CLIFlags)...)
	for _, s := range unionKeys(want.OptionFields, got.OptionFields) {
		d = append(d, listDelta("option_fields "+s, want.OptionFields[s], got.OptionFields[s])...)
	}
	d = append(d, listDelta("root_exports", want.RootExports, got.RootExports)...)
	d = append(d, listDelta("serving_deps", want.ServingDeps, got.ServingDeps)...)
	t.Fatalf("%s is stale (committed -> checkout); if the change is intended, rerun with -update and name the delta in CHANGES.md:\n  %s",
		codeLedgerFile, strings.Join(d, "\n  "))
}

func readCodeLedger(root string) (*codeLedger, error) {
	l := &codeLedger{Lines: map[string]int{}, OptionFields: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		if d.IsDir() {
			if rel != root && (rel == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		n := codeLines(src)
		l.Lines[dir] += n
		l.TotalLines += n
		l.PhysicalLines += bytes.Count(src, []byte{'\n'})
		switch dir {
		case "cmd/dfdbm":
			for _, name := range flagNames(file) {
				l.CLIFlags = append(l.CLIFlags, filepath.Base(path)+":-"+name)
			}
		case ".":
			l.RootExports = append(l.RootExports, exportedNames(file)...)
		}
		for _, s := range ledgerStructs {
			if s.dir != dir {
				continue
			}
			if fields, ok := structFields(file, s.name); ok {
				l.OptionFields[dir+"."+s.name] = fields
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range ledgerStructs {
		if _, ok := l.OptionFields[s.dir+"."+s.name]; !ok {
			return nil, fmt.Errorf("code ledger: struct %s.%s not found", s.dir, s.name)
		}
	}
	sort.Strings(l.CLIFlags)
	sort.Strings(l.RootExports)
	if l.ServingDeps, err = servingDeps(root); err != nil {
		return nil, err
	}
	return l, nil
}

// servingDeps returns the sorted dfdbm/... packages reachable from
// internal/server through the import specs of non-test files.
func servingDeps(root string) ([]string, error) {
	const module = "dfdbm/"
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var visit func(dir string) error
	visit = func(dir string) error {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil {
			return err
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, spec := range file.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					return err
				}
				dep, ok := strings.CutPrefix(imp, module)
				if !ok || seen[imp] {
					continue
				}
				seen[imp] = true
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := visit("internal/server"); err != nil {
		return nil, err
	}
	deps := make([]string, 0, len(seen))
	for imp := range seen {
		deps = append(deps, imp)
	}
	sort.Strings(deps)
	return deps, nil
}

// codeLines counts the lines of src that hold at least one token other
// than a comment.
func codeLines(src []byte) int {
	fset := token.NewFileSet()
	f := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(f, src, nil, scanner.ScanComments)
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.COMMENT || (tok == token.SEMICOLON && lit == "\n") {
			continue
		}
		first := f.Line(pos)
		for i := 0; i <= strings.Count(lit, "\n"); i++ { // raw strings span lines
			lines[first+i] = true
		}
	}
	return len(lines)
}

// flagNames returns the names of the flags a file defines through the
// flag package's FlagSet methods (fs.Bool("x", …), fs.StringVar(&v, "x", …)).
func flagNames(file *ast.File) []string {
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		arg := 0
		switch m := sel.Sel.Name; {
		case m == "Var" || strings.HasSuffix(m, "Var"):
			arg = 1
		case m == "Bool" || m == "Int" || m == "Int64" || m == "Uint" || m == "Uint64" ||
			m == "String" || m == "Float64" || m == "Duration" || m == "Func":
		default:
			return true
		}
		if len(call.Args) < 3 || arg >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	return names
}

func exportedNames(file *ast.File) []string {
	var names []string
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				names = append(names, d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				names = append(names, id.Name+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
	}
	return names
}

func structFields(file *ast.File, name string) ([]string, bool) {
	for _, decl := range file.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || ts.Name.Name != name {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			fields := []string{}
			for _, f := range st.Fields.List {
				for _, id := range f.Names {
					fields = append(fields, id.Name)
				}
				if len(f.Names) == 0 { // embedded
					fields = append(fields, fmt.Sprint(f.Type))
				}
			}
			return fields, true
		}
	}
	return nil, false
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// listDelta reports the names removed from and added to a sorted list.
func listDelta(row string, want, got []string) []string {
	count := map[string]int{}
	for _, s := range want {
		count[s]--
	}
	for _, s := range got {
		count[s]++
	}
	var d []string
	for _, s := range unionKeys(count, nil) {
		if n := count[s]; n != 0 {
			d = append(d, fmt.Sprintf("%s: %s x%+d", row, s, n))
		}
	}
	if len(want) != len(got) {
		d = append(d, fmt.Sprintf("%s: %d -> %d (%+d)", row, len(want), len(got), len(got)-len(want)))
	}
	return d
}
