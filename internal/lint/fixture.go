package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// The fixture harness is a small analysistest replacement: a testdata
// directory holds one deliberately violating package, `// want …`
// comments state the expected findings, and CheckFixture diffs the
// analyzers' output against them. The same entry point backs both the
// unit tests and chimeravet's -selftest gate, so CI can prove the
// corpus still fails without importing the testing package.

// TB is the subset of *testing.T the fixture runner needs; it keeps
// package testing out of the non-test build.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// wantRe matches one backquoted expectation inside a // want comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// LoadFixture parses and type-checks the single package in dir,
// assigning it the given import path. The import path controls which
// analyzers consider the package in scope, so one fixture can be
// checked both as a determinism-critical package and as an exempt one.
// Imports are resolved through `go list -export`, so fixtures may
// import the standard library and this module's own packages.
func LoadFixture(dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(goFiles)

	fset := token.NewFileSet()
	var files []*ast.File
	imports := map[string]bool{}
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}

	exports, err := exportData(dir, imports)
	if err != nil {
		return nil, err
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
	return checkPackage(fset, imp, pkgPath, dir, goFiles)
}

// exportData resolves export-data files for the given import paths and
// their transitive dependencies by shelling out to go list.
func exportData(dir string, imports map[string]bool) (map[string]string, error) {
	exports := make(map[string]string)
	if len(imports) == 0 {
		return exports, nil
	}
	args := []string{"list", "-export", "-deps", "-json=ImportPath,Export"}
	for p := range imports {
		args = append(args, p)
	}
	sort.Strings(args[4:])
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list (fixture imports): %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// CheckFixture runs the analyzers over the fixture package in dir
// (loaded under pkgPath) and compares the diagnostics against the
// fixture's `// want` comments. It returns the list of mismatches
// (unexpected findings and unmet expectations) and the number of
// diagnostics produced.
func CheckFixture(dir, pkgPath string, analyzers []*Analyzer) (mismatches []string, found int, err error) {
	pkg, err := LoadFixture(dir, pkgPath)
	if err != nil {
		return nil, 0, err
	}
	diags, err := Run([]*Package{pkg}, analyzers)
	if err != nil {
		return nil, 0, err
	}
	wants := collectWants(pkg.Fset, pkg.Files)

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			mismatches = append(mismatches, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for _, w := range wants {
		if !w.hit {
			mismatches = append(mismatches, fmt.Sprintf("%s:%d: no diagnostic matched `%s`", w.file, w.line, w.re))
		}
	}
	return mismatches, len(diags), nil
}

// RunFixture is the testing front end of CheckFixture: every mismatch
// becomes a test error.
func RunFixture(t TB, dir, pkgPath string, analyzers ...*Analyzer) {
	t.Helper()
	mismatches, _, err := CheckFixture(dir, pkgPath, analyzers)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	for _, m := range mismatches {
		t.Errorf("fixture %s: %s", dir, m)
	}
}

// collectWants parses expectation comments: "// want" followed by a
// regular expression in backquotes. The expectation applies to
// diagnostics reported on the comment's own line.
func collectWants(fset *token.FileSet, files []*ast.File) []*want {
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "want ")
				if idx < 0 || !strings.HasPrefix(c.Text, "//") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						// Treat an uncompilable expectation as an
						// always-failing one so the fixture is fixed.
						re = regexp.MustCompile(regexp.QuoteMeta(m[1]))
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}
