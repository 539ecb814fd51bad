// Command doccheck fails when a package exports an undocumented symbol.
//
// Usage:
//
//	doccheck <package-dir>...
//
// Each argument is a directory containing one Go package. Every
// exported top-level declaration — functions, methods, types, constants
// and variables — in non-test files must carry a doc comment (on the
// declaration or its enclosing group). Violations are listed one per
// line as file:line: name, and the exit status is 1 if any were found.
//
// The docs-check CI step (make docs-check) runs it over every package
// of the module, as listed by go list ./..., so no documented surface
// can drift ahead of the godoc.
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

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package-dir>...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		violations, err := check(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, v := range violations {
			fmt.Println(v)
		}
		bad += len(violations)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported symbols\n", bad)
		os.Exit(1)
	}
}

// check parses one package directory and returns a sorted list of
// "file:line: name undocumented" violations.
func check(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	flag := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s is undocumented", p.Filename, p.Line, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						flag(d.Pos(), describeFunc(d))
					}
				case *ast.GenDecl:
					checkGenDecl(d, flag)
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// describeFunc names a function or method for the violation message.
func describeFunc(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "function " + d.Name.Name
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if ident, ok := recv.(*ast.Ident); ok {
		return fmt.Sprintf("method %s.%s", ident.Name, d.Name.Name)
	}
	return "method " + d.Name.Name
}

// checkGenDecl flags undocumented exported names in a type, const or
// var declaration. A doc comment on the grouped declaration covers its
// specs only when no spec introduces an exported name silently: each
// exported spec needs its own comment unless the group has one and is
// a const/var block (the iota-enum idiom documents the block).
func checkGenDecl(d *ast.GenDecl, flag func(token.Pos, string)) {
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Name.IsExported() && ts.Doc == nil && d.Doc == nil {
				flag(ts.Pos(), "type "+ts.Name.Name)
			}
		}
	case token.CONST, token.VAR:
		kind := "const"
		if d.Tok == token.VAR {
			kind = "var"
		}
		for _, spec := range d.Specs {
			vs := spec.(*ast.ValueSpec)
			for _, name := range vs.Names {
				if !name.IsExported() {
					continue
				}
				if vs.Doc == nil && vs.Comment == nil && d.Doc == nil {
					flag(name.Pos(), kind+" "+name.Name)
				}
			}
		}
	}
}
