package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/fstest"
)

func TestScan(t *testing.T) {
	const (
		// internal/a declares one exported function, called from nowhere
		// unless a case adds a caller.
		decl = "package a\n\nfunc F() {}\n"
		// A file of another package calling it.
		caller = "package %s\n\nimport \"example.com/m/internal/a\"\n\nfunc g() { a.F() }\n"
	)
	use := func(pkg string) string { return fmt.Sprintf(caller, pkg) }
	// internal/a declares a struct type of the given name whose fields N
	// and n its own code reads; nothing sets them unless a case does.
	conf := func(typ string) string {
		return fmt.Sprintf("package a\n\ntype %s struct{ N, n int }\n\nfunc f(x %[1]s) int { return x.N + x.n }\n\nvar _ = f\n", typ)
	}
	setN := func(pkg, stmt string) string {
		return fmt.Sprintf("package %s\n\nimport \"example.com/m/internal/a\"\n\n%s\n", pkg, stmt)
	}
	tests := []struct {
		name  string
		files map[string]string
		allow string
		want  []string // names reported, in order
	}{
		{
			name:  "used only by its own package's tests",
			files: map[string]string{"internal/a/a.go": decl, "internal/a/a_test.go": "package a\n\nfunc init() { F() }\n", "internal/a/x_test.go": "package a_test\n\nimport \"example.com/m/internal/a\"\n\nvar _ = a.F\n"},
			want:  []string{"a.F"},
		},
		{
			name:  "used by another package's test",
			files: map[string]string{"internal/a/a.go": decl, "internal/b/b_test.go": use("b")},
		},
		{
			name:  "used only from the benchmark module",
			files: map[string]string{"internal/a/a.go": decl, "benchmark/go.mod": "module example.com/m/benchmark\n", "benchmark/main.go": use("main")},
		},
		{
			name:  "used only from the examples module",
			files: map[string]string{"internal/a/a.go": decl, "examples/go.mod": "module example.org/ex\n", "examples/q/main.go": use("main")},
		},
		{
			name:  "used under an import name",
			files: map[string]string{"internal/a/a.go": decl, "cmd/c/main.go": "package main\n\nimport x \"example.com/m/internal/a\"\n\nfunc main() { x.F() }\n"},
		},
		{
			name:  "a type referenced only as a method receiver",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (t *T) M() *T { return t }\n"},
			want:  []string{"a.T", "a.T.M"},
		},
		{
			name:  "a generic type referenced only by its methods",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype G[K comparable, V any] map[K]V\n\nfunc (g G[K, V]) Len() int { return len(g) }\n\nfunc (g *G[K, V]) Self() *G[K, V] { return g }\n"},
			want:  []string{"a.G", "a.G.Len", "a.G.Self"},
		},
		{
			name:  "a function that only calls itself",
			files: map[string]string{"internal/a/a.go": "package a\n\nfunc F(n int) int {\n\tif n == 0 {\n\t\treturn 0\n\t}\n\treturn F(n - 1)\n}\n"},
			want:  []string{"a.F"},
		},
		{
			name:  "used by its own non-test code",
			files: map[string]string{"internal/a/a.go": decl + "\nvar (\n\tZ = 1\n\tv = []int{Z}\n)\n\nfunc init() { F(); _ = v }\n"},
		},
		{
			name:  "a field of the same name is no use",
			files: map[string]string{"internal/a/a.go": decl + "\ntype s struct{ F int }\n\nfunc g(x s) int { return x.F }\n", "internal/b/b.go": "package b\n\nimport \"example.com/m/internal/a\"\n\nfunc g(x struct{ F int }) int { return x.F + len(a.Names) }\n"},
			want:  []string{"a.F"},
		},
		{
			name:  "allowlisted",
			files: map[string]string{"internal/a/a.go": decl},
			allow: "# comment\n\na.F the reference form of something\n",
		},
		{
			name:  "testdata and dot directories are skipped",
			files: map[string]string{"internal/a/a.go": decl, "internal/b/testdata/c.go": use("c"), "internal/.d/d.go": use("d"), "internal/a/testdata/e.go": "package e\n\nfunc Dead() {}\n"},
			want:  []string{"a.F"},
		},
		{
			name:  "a method called only by its own package's tests",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n\nfunc (*T) m() {}\n\nvar _ = T{}\n", "internal/a/a_test.go": "package a\n\nfunc init() { T{}.M(); new(T).m() }\n"},
			want:  []string{"a.T.M"},
		},
		{
			name:  "a method called by another package's test",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n", "internal/b/b_test.go": "package b\n\nimport \"example.com/m/internal/a\"\n\nfunc init() { a.T{}.M() }\n"},
		},
		{
			name:  "a package's function of the same name is no call",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n\nfunc M() {}\n\nvar _ = T{}\n", "internal/b/b.go": "package b\n\nimport \"example.com/m/internal/a\"\n\nfunc init() { a.M() }\n"},
			want:  []string{"a.T.M"},
		},
		{
			name:  "a method called on a local that shadows an import",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n", "internal/b/b.go": "package b\n\nimport \"example.com/m/internal/a\"\n\nfunc g() {\n\ta := a.T{}\n\ta.M()\n}\n"},
		},
		{
			name:  "an allowlisted interface method keeps its implementations",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype I interface{ M() }\n\ntype T struct{}\n\nfunc (T) M() {}\n\nvar _ I = T{}\n"},
			allow: "a.I.M the reference form of something\n",
		},
		{
			name:  "a config field set only by its own package's tests",
			files: map[string]string{"internal/a/a.go": conf("XConfig"), "internal/a/a_test.go": "package a\n\nvar _ = XConfig{N: 1}\n"},
			want:  []string{"a.XConfig.N"},
		},
		{
			name:  "a policy field set only by another package's test",
			files: map[string]string{"internal/a/a.go": conf("YPolicy"), "internal/b/b_test.go": setN("b", "var _ = a.YPolicy{N: 1}")},
			want:  []string{"a.YPolicy.N"},
		},
		{
			name:  "a config field set by a cmd literal",
			files: map[string]string{"internal/a/a.go": conf("XConfig"), "cmd/c/main.go": setN("main", "var _ = []a.XConfig{{N: 1}}")},
		},
		{
			name:  "a config field set by an assignment outside its package",
			files: map[string]string{"internal/a/a.go": conf("XConfig"), "internal/b/b.go": setN("b", "func g(c *a.XConfig) { c.N = 1 }")},
		},
		{
			name:  "a config field named only by another type's literal",
			files: map[string]string{"internal/a/a.go": conf("XConfig"), "internal/b/b.go": "package b\n\ntype T struct{ N int }\n\nvar _ = &T{N: 1}\n"},
			want:  []string{"a.XConfig.N"},
		},
		{
			name:  "a config field set by an alias's literal",
			files: map[string]string{"internal/a/a.go": conf("XConfig"), "m.go": setN("m", "type X = a.XConfig"), "cmd/c/main.go": "package main\n\nimport \"example.com/m\"\n\nvar _ = m.X{N: 1}\n"},
		},
		{
			name:  "a config field set by an elided literal",
			files: map[string]string{"internal/a/a.go": conf("XConfig"), "internal/b/b.go": setN("b", "var _ = map[string]a.XConfig{\"x\": {N: 1}}")},
		},
		{
			name:  "an allowlisted config field",
			files: map[string]string{"internal/a/a.go": conf("XConfig")},
			allow: "a.XConfig.N the reference form of something\n",
		},
		{
			name:  "outside internal is not checked",
			files: map[string]string{"pkg/p.go": "package pkg\n\nfunc Dead() {}\n"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fsys := fstest.MapFS{}
			for name, src := range tt.files {
				fsys[name] = &fstest.MapFile{Data: []byte(src)}
			}
			out, err := scan(fsys, tt.allow)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, line := range out {
				got = append(got, strings.Fields(line)[1])
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("reported %q, want %q\n%s", got, tt.want, strings.Join(out, "\n"))
			}
		})
	}
}

func TestAllowEntryNeedsReason(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/a/a.go": {Data: []byte("package a\n\nfunc F() {}\n")},
	}
	if _, err := scan(fsys, "a.F\n"); err == nil || !strings.Contains(err.Error(), "no reason") {
		t.Errorf("scan with a bare entry: err = %v, want one naming the missing reason", err)
	}
}
