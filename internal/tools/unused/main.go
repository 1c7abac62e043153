// Command unused fails when an exported top-level name in internal/ is
// kept alive by its own package's tests alone: no file of another package
// (test files, benchmark/ and examples/ included) names it as pkg.Name,
// and no other declaration of its package's non-test code names it (a
// method's receiver does not count). allow.txt lists the exceptions with
// their reasons. It parses only, with no type checker, so a local name
// that shadows an import or a declaration can hide dead code, never
// invent it. Directories named testdata or starting with . or _ are
// skipped, as the go command skips them.
//
// Usage, from the repository root (exit status 1 lists every finding):
//
//	go run ./internal/tools/unused
package main

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

//go:embed allow.txt
var allowTxt string

func main() {
	findings, err := scan(os.DirFS("."), allowTxt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unused: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "unused: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("unused: every exported name in internal/ has a caller")
}

// scan parses every Go file in fsys and returns one line per finding.
// A package is named by its path under internal/, and an import path by
// what follows its "/internal/".
func scan(fsys fs.FS, allow string) ([]string, error) {
	fset := token.NewFileSet()
	type decl struct {
		name string // "pkg.Name"
		pos  token.Pos
	}
	var decls []decl
	used := map[string]bool{}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, own := strings.CutPrefix(path.Dir(p), "internal/")
		imports := map[string]string{} // local name -> package, another one's
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if _, dep, ok := strings.Cut(ip, "/internal/"); ok && !(own && dep == pkg) {
				imports[path.Base(dep)] = dep
				if imp.Name != nil {
					imports[imp.Name.Name] = dep
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		if !own || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		for _, d := range f.Decls {
			units(d, func(owners []*ast.Ident, method bool, parts ...ast.Node) {
				for _, id := range owners {
					if id.IsExported() && !method {
						decls = append(decls, decl{pkg + "." + id.Name, id.Pos()})
					}
				}
				for _, n := range parts {
					refs(n, func(id *ast.Ident) {
						if !slices.ContainsFunc(owners, func(o *ast.Ident) bool { return o.Name == id.Name }) {
							used[pkg+"."+id.Name] = true
						}
					})
				}
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	allowed := map[string]bool{}
	for _, line := range strings.Split(allow, "\n") {
		if f := strings.Fields(line); len(f) == 1 && f[0][0] != '#' {
			return nil, fmt.Errorf("allow.txt: %s has no reason", f[0])
		} else if len(f) > 1 && f[0][0] != '#' {
			allowed[f[0]] = true
		}
	}
	var out []string
	for _, d := range decls {
		if !used[d.name] && !allowed[d.name] {
			out = append(out, fmt.Sprintf("%s: %s has no caller outside its own package's tests", fset.Position(d.pos), d.name))
		}
	}
	return out, nil
}

// units calls fn once per declared thing in d: a function, a method, or
// one spec of a type, var or const declaration. owners are the names it
// declares (a method's: its receiver's type), parts what may name others.
func units(d ast.Decl, fn func(owners []*ast.Ident, method bool, parts ...ast.Node)) {
	if d, ok := d.(*ast.FuncDecl); ok {
		owners := []*ast.Ident{d.Name}
		if d.Recv != nil {
			owners = nil // T, or T and its type parameters, of T, *T or *T[P]
			refs(d.Recv, func(id *ast.Ident) { owners = append(owners, id) })
		}
		fn(owners, d.Recv != nil, d.Type, d.Body)
		return
	}
	for _, s := range d.(*ast.GenDecl).Specs {
		switch s := s.(type) {
		case *ast.TypeSpec:
			fn([]*ast.Ident{s.Name}, false, s.TypeParams, s.Type)
		case *ast.ValueSpec:
			parts := []ast.Node{s.Type}
			for _, v := range s.Values {
				parts = append(parts, v)
			}
			fn(s.Names, false, parts...)
		}
	}
}

// refs calls fn on each identifier in n that can name a declaration of
// its own package: the field or method of a selector (x.Name) and the
// name of a field or parameter cannot.
func refs(n ast.Node, fn func(*ast.Ident)) {
	if n == nil || reflect.ValueOf(n).IsNil() { // an absent body, type or list
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			refs(n.X, fn)
			return false
		case *ast.Field:
			refs(n.Type, fn)
			return false
		case *ast.Ident:
			fn(n)
		}
		return true
	})
}
