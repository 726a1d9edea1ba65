package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a Go source file into dir.
func write(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLintDirFindings(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", `// Package demo is documented.
package demo

// Documented is fine.
func Documented() {}

func Undocumented() {}

type Exposed struct{}

// Grouped constants share the declaration doc.
const (
	A = 1
	B = 2
)

var Naked = 3

func unexported() {}

func (Exposed) Method() {}

type hidden struct{}

func (hidden) Exported() {} // method on unexported type: internal API
`)
	findings, err := lintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		// Strip the tempdir prefix for stable comparison.
		got = append(got, f[strings.LastIndex(f, string(filepath.Separator))+1:])
	}
	// lintDir sorts findings lexically, so two-digit lines precede
	// single-digit ones.
	want := []string{
		"a.go:17: exported var Naked is undocumented",
		"a.go:21: exported method Method is undocumented",
		"a.go:7: exported function Undocumented is undocumented",
		"a.go:9: exported type Exposed is undocumented",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestLintDirMissingPackageComment(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", "package nodoc\n")
	findings, err := lintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "no package comment") {
		t.Errorf("findings = %v", findings)
	}
}

// Test files are exempt: exported test helpers document themselves through
// the tests that use them.
func TestLintDirSkipsTestFiles(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", "// Package demo.\npackage demo\n")
	write(t, dir, "a_test.go", "package demo\n\nfunc Helper() {}\n")
	findings, err := lintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("findings = %v", findings)
	}
}

func TestExpandWalksRecursively(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "inner")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, root, "a.go", "// Package a.\npackage a\n")
	write(t, sub, "b.go", "// Package b.\npackage b\n")
	write(t, root, "ignored.txt", "not go")

	dirs, err := expand([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 || dirs[0] != root || dirs[1] != sub {
		t.Errorf("expand = %v, want [%s %s]", dirs, root, sub)
	}

	// Non-recursive: only the named directory.
	dirs, err = expand([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != root {
		t.Errorf("expand = %v", dirs)
	}
}

// In an internal/ package every exported identifier needs a reference from
// a non-test file somewhere in the tree, nested modules included; keep
// directives and standard interface methods are exempt.
func TestLintDirUnusedExports(t *testing.T) {
	root := t.TempDir()
	lib := filepath.Join(root, "internal", "lib")
	nested := filepath.Join(root, "bench")
	for _, d := range []string{lib, nested} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write(t, root, "go.mod", "module demo\n")
	write(t, nested, "go.mod", "module demo/bench\n")
	write(t, lib, "lib.go", `// Package lib is documented.
package lib

// Used is called from cmd.
func Used() {}

// TestOnly is called only from a test.
func TestOnly() {}

// Nested is called from the nested module.
func Nested() {}

// Seam stays for other packages' tests.
//
//doclint:keep kernel tests plant through it
func Seam() {}

// Bare has a keep directive without a reason.
//
//doclint:keep
func Bare() {}

// T is a type.
type T struct{}

// MarshalJSON is called by encoding/json, never by name.
func (T) MarshalJSON() ([]byte, error) { return nil, nil }
`)
	write(t, lib, "lib_test.go", "package lib\n\nfunc init() { TestOnly() }\n")
	write(t, root, "main.go", "// Command demo.\npackage main\n\nimport \"demo/internal/lib\"\n\nfunc main() { lib.Used(); _ = lib.T{} }\n")
	write(t, nested, "main.go", "package main\n\nimport \"demo/internal/lib\"\n\nfunc main() { lib.Nested() }\n")

	findings, err := lintDir(lib)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, strings.TrimPrefix(f, lib+string(filepath.Separator)))
	}
	want := []string{
		"lib.go:21: //doclint:keep on Bare gives no reason",
		"lib.go:8: exported TestOnly has no non-test reference",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Outside internal/ the reference check does not apply.
	write(t, root, "lib.go", "package main\n\n// Exported is unreferenced.\nfunc Exported() {}\n")
	if findings, err := lintDir(root); err != nil || len(findings) != 0 {
		t.Errorf("non-internal findings = %v, %v", findings, err)
	}
}

// Method references resolve through go/types: a call of one type's method
// does not cover another type's method of the same name, and a call
// through an interface covers every type implementing it.
func TestLintDirResolvesMethods(t *testing.T) {
	root := t.TempDir()
	lib := filepath.Join(root, "internal", "lib")
	if err := os.MkdirAll(lib, 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, root, "go.mod", "module demo\n")
	write(t, lib, "lib.go", `// Package lib is documented.
package lib

// A is checked by main.
type A struct{}

// Check is called on an A.
func (A) Check() error { return nil }

// B shares A's method name.
type B struct{}

// Check is never called on a B.
func (B) Check() error { return nil }

// Runner runs.
type Runner interface{ Run() }

// C is only run through Runner.
type C struct{}

// Run is reached through the interface.
func (*C) Run() {}
`)
	write(t, root, "main.go", `// Command demo.
package main

import "demo/internal/lib"

func main() {
	_ = lib.A{}.Check()
	var r lib.Runner = &lib.C{}
	r.Run()
	_ = lib.B{}
}
`)
	findings, err := lintDir(lib)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, strings.TrimPrefix(f, lib+string(filepath.Separator)))
	}
	want := []string{"lib.go:14: exported Check has no non-test reference"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// In an internal/ package every unexported field of a package-level struct
// type needs a read from non-test code: assignments, ++ and composite-
// literal keys are writes, and embedded or kept fields are exempt.
func TestLintDirWriteOnlyFields(t *testing.T) {
	root := t.TempDir()
	lib := filepath.Join(root, "internal", "lib")
	if err := os.MkdirAll(lib, 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, root, "go.mod", "module demo\n")
	write(t, lib, "lib.go", `// Package lib is documented.
package lib

import "sync"

// Counter counts.
type Counter struct {
	sync.Mutex
	read    int
	written int
	kept    int //doclint:keep a test in another package reads it
}

// Bump writes every field and reads only one.
func Bump(c *Counter) int {
	*c = Counter{written: 1, kept: 2}
	c.written++
	c.written += c.read
	(c.written) = 3
	return c.read
}
`)
	write(t, lib, "lib_test.go", "package lib\n\nfunc init() { _ = Counter{}.written }\n")
	write(t, root, "main.go", "// Command demo.\npackage main\n\nimport \"demo/internal/lib\"\n\nfunc main() { lib.Bump(new(lib.Counter)) }\n")

	findings, err := lintDir(lib)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, strings.TrimPrefix(f, lib+string(filepath.Separator)))
	}
	want := []string{"lib.go:10: field Counter.written has no non-test read"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// Exported fields need a non-test read too, from any module of the tree.
// encoding/json reads by reflection: every field of a type reachable from
// a json:-tagged struct, through pointers, slices, maps and named types,
// counts as read.
func TestLintDirExportedFields(t *testing.T) {
	root := t.TempDir()
	lib := filepath.Join(root, "internal", "lib")
	nested := filepath.Join(root, "bench")
	for _, d := range []string{lib, nested} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write(t, root, "go.mod", "module demo\n")
	write(t, nested, "go.mod", "module demo/bench\n")
	write(t, lib, "lib.go", `// Package lib is documented.
package lib

// Stats counts.
type Stats struct {
	Read    int
	Written int
	Nested  int
	Bare    int //doclint:keep
}

// Record is encoded by encoding/json.
type Record struct {
	ID    int    `+"`json:\"id\"`"+`
	Inner *Outer `+"`json:\"inner\"`"+`
}

// Outer carries no tags and is reached through a pointer.
type Outer struct{ Items []Item }

// Item is reached through a slice.
type Item struct{ ByName map[string]Leaf }

// Leaf is reached through a map.
type Leaf struct{ Value int }

// Orphan is neither read nor encoded.
type Orphan struct{ Value int }

// Plain carries no tags, so what it reaches is not encoded either.
type Plain struct{ Inner *Orphan }

// Bump writes every Stats field and reads only Read.
func Bump(s *Stats) int {
	s.Written++
	s.Nested = 1
	s.Bare = 2
	return s.Read
}

// Build writes every field of the encoded types and of Plain.
func Build() (Record, Plain) {
	return Record{ID: 1, Inner: &Outer{Items: []Item{{ByName: map[string]Leaf{"a": {Value: 1}}}}}}, Plain{Inner: &Orphan{Value: 2}}
}
`)
	write(t, lib, "lib_test.go", "package lib\n\nfunc init() { _ = Stats{}.Written }\n")
	write(t, root, "main.go", `// Command demo.
package main

import "demo/internal/lib"

func main() {
	lib.Bump(new(lib.Stats))
	lib.Build()
	_, _, _, _ = lib.Outer{}, lib.Item{}, lib.Leaf{}, lib.Orphan{}
}
`)
	write(t, nested, "main.go", "package main\n\nimport \"demo/internal/lib\"\n\nfunc main() { _ = new(lib.Stats).Nested }\n")

	findings, err := lintDir(lib)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, strings.TrimPrefix(f, lib+string(filepath.Separator)))
	}
	want := []string{
		"lib.go:28: field Orphan.Value has no non-test read",
		"lib.go:31: field Plain.Inner has no non-test read",
		"lib.go:7: field Stats.Written has no non-test read",
		"lib.go:9: //doclint:keep on Stats.Bare gives no reason",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
