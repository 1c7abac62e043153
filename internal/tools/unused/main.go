// Command unused fails when an exported top-level name in internal/ is
// kept alive by its own package's tests alone: no file of another package
// (test files, benchmark/ and examples/ included) names it as pkg.Name,
// and no other declaration of its package's non-test code names it (a
// method's receiver does not count). It fails too on an exported method,
// of a type or an interface in internal/, that no selector x.Method
// names outside its package's own tests, and on an exported field of an
// exported ...Config or ...Policy struct that no non-test file outside
// its package sets (as a composite-literal key or by an assignment).
// allow.txt lists the exceptions with their reasons. It parses only,
// with no type checker, so a local name that shadows a declaration can
// hide dead code, never invent it. A key of a literal T{...} or pkg.T{...}
// sets T's field alone (B's, if T is an alias of pkg.B); another field or
// a method is matched by its name, whatever the type of x, so an
// allowlisted method (an interface's, say) keeps every method of its name.
// Directories named testdata or starting with . or _ are skipped.
//
// Usage, from the repository root (exit status 1 lists every finding):
//
//	go run ./internal/tools/unused
package main

import (
	"cmp"
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
		pkg    string // a field's: its directory, "internal/pkg"
		name   string // "pkg.Name", "pkg.Type.Method" or "pkg.Type.Field"
		method string // a method's name, "=" and a field's, else ""
		pos    token.Pos
	}
	var decls []decl
	used := map[string]bool{}
	// selected[m] holds, for each file naming x.m other than as pkg.m,
	// the package whose test it is, or "" for any other file; and
	// selected["="+f], for each non-test file setting a field f, its
	// directory (selected["=pkg.T."+f] if a key of a T literal sets it).
	selected := map[string]map[string]bool{}
	aliases, keys := map[string]string{}, [][3]string{} // "pkg.A." -> "pkg.B."; {type, key, dir}
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
		// Object resolution tells a package name (unresolved) from a
		// local one that shadows it.
		f, err := parser.ParseFile(fset, p, src, 0)
		if err != nil {
			return err
		}
		pkg, own := strings.CutPrefix(path.Dir(p), "internal/")
		test := strings.HasSuffix(p, "_test.go")
		tester := ""
		if own && test {
			tester = pkg
		}
		// Each import's local name -> its package under internal/ if that
		// is another package, else "".
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ""
			if _, dep, ok := strings.Cut(ip, "/internal/"); ok && !(own && dep == pkg) {
				imports[path.Base(dep)] = dep
				imports[name] = dep
			}
		}
		// typeOf names a type written T or x.T "pkg.T.", any other type "".
		typeOf := func(e ast.Expr) string {
			if x, ok := e.(*ast.SelectorExpr); ok {
				return cmp.Or(imports[fmt.Sprint(x.X)], fmt.Sprint(x.X)) + "." + x.Sel.Name + "."
			} else if id, ok := e.(*ast.Ident); ok {
				return f.Name.Name + "." + id.Name + "."
			}
			return ""
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if n.Assign.IsValid() {
					aliases[typeOf(n.Name)] = typeOf(n.Type)
				}
			case *ast.CompositeLit:
				for _, kv := range n.Elts {
					if kv, ok := kv.(*ast.KeyValueExpr); ok && !test {
						if key, ok := kv.Key.(*ast.Ident); ok {
							keys = append(keys, [3]string{typeOf(n.Type), key.Name, path.Dir(p)})
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && !test {
						addTo(selected, "="+sel.Sel.Name, path.Dir(p))
					}
				}
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil {
				if dep, isPkg := imports[x.Name]; isPkg {
					if dep != "" {
						used[dep+"."+sel.Sel.Name] = true
					}
					return true
				}
			}
			addTo(selected, sel.Sel.Name, tester)
			return true
		})
		if !own || test {
			return nil
		}
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE {
				for _, ts := range g.Specs {
					t := ts.(*ast.TypeSpec).Name
					if st, ok := ts.(*ast.TypeSpec).Type.(*ast.StructType); ok && t.IsExported() && (strings.HasSuffix(t.Name, "Config") || strings.HasSuffix(t.Name, "Policy")) {
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								if id.IsExported() {
									decls = append(decls, decl{path.Dir(p), pkg + "." + t.Name + "." + id.Name, "=" + id.Name, id.Pos()})
								}
							}
						}
					}
				}
			}
			units(d, func(owners []*ast.Ident, method *ast.Ident, parts ...ast.Node) {
				if method != nil && method.IsExported() {
					decls = append(decls, decl{pkg, pkg + "." + owners[0].Name + "." + method.Name, method.Name, method.Pos()})
				}
				for _, id := range owners {
					if id.IsExported() && method == nil {
						decls = append(decls, decl{pkg, pkg + "." + id.Name, "", id.Pos()})
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
	allowedMethods := map[string]bool{}
	for _, d := range decls {
		if d.method != "" && allowed[d.name] {
			allowedMethods[d.method] = true
		}
	}
	for _, k := range keys {
		addTo(selected, "="+cmp.Or(aliases[k[0]], k[0])+k[1], k[2])
	}
	// outside reports whether by holds a package or directory other than pkg.
	outside := func(by map[string]bool, pkg string) bool { return len(by) > 1 || len(by) == 1 && !by[pkg] }
	var out []string
	for _, d := range decls {
		if d.method != "" {
			used[d.name] = allowedMethods[d.method] || outside(selected[d.method], d.pkg) || outside(selected["="+d.name], d.pkg)
		}
		why := "has no caller outside its own package's tests"
		if strings.HasPrefix(d.method, "=") {
			why = "is set by no non-test file outside its package"
		}
		if !used[d.name] && !allowed[d.name] {
			out = append(out, fmt.Sprintf("%s: %s %s", fset.Position(d.pos), d.name, why))
		}
	}
	return out, nil
}

// addTo adds v to the set m[k].
func addTo(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][v] = true
}

// units calls fn once per declared thing in d: a function, a method, one
// method of an interface type, or one spec of a type, var or const
// declaration. owners are the names it declares (a method's: its
// receiver's type or its interface), method a method's own name, parts
// what may name others.
func units(d ast.Decl, fn func(owners []*ast.Ident, method *ast.Ident, parts ...ast.Node)) {
	if d, ok := d.(*ast.FuncDecl); ok {
		if d.Recv == nil {
			fn([]*ast.Ident{d.Name}, nil, d.Type, d.Body)
			return
		}
		var owners []*ast.Ident // T, or T and its type parameters, of T, *T or *T[P]
		refs(d.Recv, func(id *ast.Ident) { owners = append(owners, id) })
		fn(owners, d.Name, d.Type, d.Body)
		return
	}
	for _, s := range d.(*ast.GenDecl).Specs {
		switch s := s.(type) {
		case *ast.TypeSpec:
			fn([]*ast.Ident{s.Name}, nil, s.TypeParams, s.Type)
			if it, ok := s.Type.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						fn([]*ast.Ident{s.Name}, name)
					}
				}
			}
		case *ast.ValueSpec:
			parts := []ast.Node{s.Type}
			for _, v := range s.Values {
				parts = append(parts, v)
			}
			fn(s.Names, nil, parts...)
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
