// doclint is the repository's godoc comment lint: it fails when a package
// lacks a package comment or an exported top-level identifier lacks a doc
// comment, the revive/stylecheck subset this repo enforces in CI without
// external dependencies.
//
// In packages under an internal/ directory it also fails on an exported
// identifier that no non-test .go file references.  References are
// resolved with go/types across the whole tree of the nearest enclosing
// go.mod, nested modules included, so a method is used only when a
// selector resolves to it, or to a method of an interface its type
// implements; another type's method of the same name does not count, nor
// does a declaration's own name.  The methods of an exported interface
// type fall under the same rule: each needs a call through the interface.
// Methods named after standard-library interfaces (Error, String, Unwrap,
// MarshalJSON, UnmarshalJSON, ServeHTTP) are exempt, and so is a
// declaration whose doc comment carries a
//
//	//doclint:keep <reason>
//
// directive, the mark of a seam that tests in other packages need.  A keep
// directive without a reason is itself a finding.  Test-only helpers
// belong in an in-package export_test.go instead.
//
// Under internal/ it also fails on a field of a package-level struct type,
// exported or not, that no non-test .go file in the tree reads.  A write
// is not a read: the field as an assignment target (op-assign included),
// as the operand of ++ or --, or as a composite-literal key.  A field
// encoding/json reads by reflection, of a type reachable from a json:-
// tagged struct, is read.  Embedded fields are exempt, and so is a field
// whose doc or line comment carries a keep directive with a reason.
//
// Usage:
//
//	doclint ./internal/... ./cmd/...
//
// Patterns ending in /... are walked recursively; test files are exempt
// (their exported helpers document themselves through the tests).
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: doclint ./dir [./dir/... ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	dirs, err := expand(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var findings []string
	for _, dir := range dirs {
		fs, err := lintDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d findings\n", len(findings))
		os.Exit(1)
	}
}

// expand resolves argument patterns into the sorted set of directories that
// contain non-test Go files; "dir/..." walks recursively.
func expand(args []string) ([]string, error) {
	seen := map[string]bool{}
	add := func(dir string) error {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				seen[dir] = true
				return nil
			}
		}
		return nil
	}
	for _, arg := range args {
		if root, ok := strings.CutSuffix(arg, "/..."); ok {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					return add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := add(arg); err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// lintDir parses one package directory and reports undocumented exported
// declarations and, under internal/, exported declarations no non-test
// code references.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("doclint: parsing %s: %w", dir, err)
	}
	refs, pkgPath, err := internalRefs(dir)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, file := range pkg.Files {
			if file.Doc != nil && len(strings.TrimSpace(file.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		for _, file := range pkg.Files {
			findings = append(findings, lintFile(fset, file, refs, pkgPath)...)
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// exemptMethods are the standard-library interface methods a type defines
// for fmt, errors, encoding/json or net/http to call, never by name.
var exemptMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// keepDirective marks a declaration that stays exported for tests in other
// packages; the rest of the line gives the reason.
const keepDirective = "//doclint:keep"

// keep reports whether any of the comment groups carries a keep directive,
// and the reason it gives.
func keep(docs ...*ast.CommentGroup) (kept bool, reason string) {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if rest, ok := strings.CutPrefix(c.Text, keepDirective); ok && (rest == "" || rest[0] == ' ') {
				kept, reason = true, strings.TrimSpace(rest)
			}
		}
	}
	return kept, reason
}

// lintFile reports the file's undocumented exported top-level declarations:
// functions and methods, type specs, and const/var specs (a group doc on
// the declaration covers all of its specs).  With refs set it also reports
// each one whose objKey (under pkgPath) refs lacks, unless it is an exempt
// method or carries a keep directive, each field of a struct type and each
// method of an exported interface type whose fieldKey refs lacks, unless
// it is embedded, exempt or kept, and each keep directive without a
// reason.
func lintFile(fset *token.FileSet, file *ast.File, refs map[string]bool, pkgPath string) []string {
	var findings []string
	report := func(id *ast.Ident, format string, args ...any) {
		p := fset.Position(id.Pos())
		findings = append(findings, fmt.Sprintf("%s:%d: ", p.Filename, p.Line)+fmt.Sprintf(format, args...))
	}
	check := func(id *ast.Ident, what, scope string, docs ...*ast.CommentGroup) {
		if !id.IsExported() {
			return
		}
		documented := slices.ContainsFunc(docs, func(d *ast.CommentGroup) bool { return d != nil })
		kept, reason := keep(docs...)
		switch {
		case !documented:
			report(id, "exported %s %s is undocumented", what, id.Name)
		case refs == nil || what == "method" && exemptMethods[id.Name]:
		case kept && reason == "":
			report(id, "%s on %s gives no reason", keepDirective, id.Name)
		case !kept && !refs[scope+"."+id.Name]:
			report(id, "exported %s has no non-test reference", id.Name)
		}
	}
	// members checks the named fields of a struct or the methods of an
	// interface declared as typ; missing formats a finding from typ and
	// the member's name.
	members := func(typ string, list *ast.FieldList, skip func(name string) bool, missing string) {
		for _, f := range list.List {
			kept, reason := keep(f.Doc, f.Comment)
			for _, id := range f.Names {
				switch {
				case skip(id.Name):
				case kept && reason == "":
					report(id, "%s on %s.%s gives no reason", keepDirective, typ, id.Name)
				case !kept && !refs[fieldKey(pkgPath, typ, id.Name)]:
					report(id, missing, typ, id.Name)
				}
			}
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			recv := recvName(d)
			if recv == "" {
				check(d.Name, "function", pkgPath, d.Doc)
			} else if ast.IsExported(recv) {
				check(d.Name, "method", pkgPath+"."+recv, d.Doc)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					check(s.Name, "type", pkgPath, d.Doc, s.Doc, s.Comment)
					if refs == nil {
						continue
					}
					switch t := s.Type.(type) {
					case *ast.StructType:
						members(s.Name.Name, t.Fields, func(string) bool { return false }, "field %s.%s has no non-test read")
					case *ast.InterfaceType:
						if s.Name.IsExported() {
							members(s.Name.Name, t.Methods, func(name string) bool {
								return !ast.IsExported(name) || exemptMethods[name]
							}, "exported method %s.%s has no non-test reference")
						}
					}
				case *ast.ValueSpec:
					kind := "const"
					if d.Tok == token.VAR {
						kind = "var"
					}
					for _, id := range s.Names {
						check(id, kind, pkgPath, d.Doc, s.Doc, s.Comment)
					}
				}
			}
		}
	}
	return findings
}

// recvName returns the name of a method's receiver type, and "" for a
// function.  Methods on unexported types are internal API.
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// internalRefs returns the objects non-test code references across the
// tree of the nearest go.mod enclosing dir, keyed by objKey, and dir's
// import path, when dir lies under an internal/ directory of that tree;
// refs is nil otherwise.
func internalRefs(dir string) (refs map[string]bool, pkgPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, "", err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, "", nil
		}
		root = parent
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || !slices.Contains(strings.Split(filepath.ToSlash(rel), "/"), "internal") {
		return nil, "", err
	}
	l, err := load(root)
	if err != nil {
		return nil, "", err
	}
	for path, d := range l.dirs {
		if d == abs {
			pkgPath = path
		}
	}
	return l.refs, pkgPath, nil
}

// objKey names a package-level object "path.Name" and a method
// "path.Recv.Name", the form lintFile looks declarations up by.
func objKey(obj types.Object) string {
	key := obj.Pkg().Path() + "." + obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key = obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
		}
	}
	return key
}

// fieldKey names a field of a package-level struct type "path.Struct.field",
// the same shape as a method's objKey, and so also an interface method.
func fieldKey(pkgPath, strct, field string) string {
	return pkgPath + "." + strct + "." + field
}

// loader type-checks the packages of one go.mod tree from their non-test
// files.
type loader struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files []*ast.File
	std   types.Importer
	info  *types.Info
	refs  map[string]bool // objKey of every object referenced, fieldKey of every field read
}

// loadCache holds each root's loaded tree, built on first use.
var loadCache = map[string]*loader{}

// load type-checks every package directory under root, nested modules
// included and hidden directories and testdata skipped, and records the
// objects the non-test files reference and the struct fields they read.
// A method also counts when a referenced interface method of the same name
// belongs to an interface its type implements: a call through an interface
// reaches every implementation.
func load(root string) (*loader, error) {
	if l, ok := loadCache[root]; ok {
		return l, nil
	}
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*types.Package{},
		std: importer.Default(), info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}, refs: map[string]bool{}}
	paths := map[string]string{} // directory -> import path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		// A go.mod starts a module path; below it, directories extend it.
		paths[dir] = paths[filepath.Dir(dir)] + "/" + d.Name()
		if gomod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			paths[dir] = modulePath(gomod)
		}
		l.dirs[paths[dir]] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range l.dirs {
		if _, err := l.Import(path); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return nil, err
		}
	}
	writes := l.fieldWrites()
	read := l.jsonFields()
	ifaces := map[*types.Func]*types.Interface{}
	for id, obj := range l.info.Uses {
		if obj.Pkg() == nil {
			continue
		}
		l.refs[objKey(obj)] = true
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[v.Origin()] = true
		}
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				ifaces[obj.(*types.Func)] = iface
			}
		}
	}
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if read[st.Field(i)] {
						l.refs[fieldKey(pkg.Path(), name, st.Field(i).Name())] = true
					}
				}
			}
			ptr := types.NewPointer(obj.Type())
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				for f, iface := range ifaces {
					if f.Name() == ms.At(i).Obj().Name() && types.Implements(ptr, iface) {
						l.refs[objKey(ms.At(i).Obj())] = true
					}
				}
			}
		}
	}
	loadCache[root] = l
	return l, nil
}

// jsonFields returns the fields encoding/json reads by reflection: every
// field of each struct type reachable, through pointers, slices, arrays,
// maps and named types, from a struct type with a json: tag.
func (l *loader) jsonFields() map[*types.Var]bool {
	fields := map[*types.Var]bool{}
	seen := map[*types.Named]bool{} // a type can recur only through a name
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if !seen[t] {
				seen[t] = true
				walk(t.Underlying())
			}
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array
			walk(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				fields[t.Field(i).Origin()] = true
				walk(t.Field(i).Type())
			}
		}
	}
	for _, tv := range l.info.Types {
		if st, ok := tv.Type.(*types.Struct); ok && tv.IsType() {
			for i := 0; i < st.NumFields(); i++ {
				if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
					walk(st)
					break
				}
			}
		}
	}
	return fields
}

// fieldWrites returns the field identifiers the loaded files write without
// reading: the selector named by an assignment target (op-assign
// included) or a ++/-- operand, and a composite-literal key.
func (l *loader) fieldWrites() map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id] = true
				}
			}
			return true
		})
	}
	return writes
}

// modulePath returns the module path a go.mod file declares.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// Import type-checks a package of the tree from its non-test files under
// the default build constraints, and hands any other path to the standard
// importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.files = append(l.files, files...)
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("doclint: type-checking %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
