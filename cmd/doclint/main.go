// doclint is the repository's godoc comment lint: it fails when a package
// lacks a package comment or an exported top-level identifier lacks a doc
// comment, the revive/stylecheck subset this repo enforces in CI without
// external dependencies.
//
// In packages under an internal/ directory it also fails on an exported
// identifier whose name no non-test .go file references.  References are
// counted by name across the whole tree of the nearest enclosing go.mod,
// nested modules included; a declaration's own name does not count.
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
// Usage:
//
//	doclint ./internal/... ./cmd/...
//
// Patterns ending in /... are walked recursively; test files are exempt
// (their exported helpers document themselves through the tests).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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
	refs, err := internalRefs(dir)
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
			findings = append(findings, lintFile(fset, file, refs)...)
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

// lintFile reports the file's undocumented exported top-level declarations:
// functions and methods, type specs, and const/var specs (a group doc on
// the declaration covers all of its specs).  With refs set it also reports
// each one whose name refs lacks, unless it is an exempt method or carries
// a keep directive, and each keep directive without a reason.
func lintFile(fset *token.FileSet, file *ast.File, refs map[string]bool) []string {
	var findings []string
	report := func(id *ast.Ident, format string, args ...any) {
		p := fset.Position(id.Pos())
		findings = append(findings, fmt.Sprintf("%s:%d: ", p.Filename, p.Line)+fmt.Sprintf(format, args...))
	}
	check := func(id *ast.Ident, what string, docs ...*ast.CommentGroup) {
		if !id.IsExported() {
			return
		}
		documented, kept, reason := false, false, ""
		for _, doc := range docs {
			if doc == nil {
				continue
			}
			documented = true
			for _, c := range doc.List {
				if rest, ok := strings.CutPrefix(c.Text, keepDirective); ok && (rest == "" || rest[0] == ' ') {
					kept, reason = true, strings.TrimSpace(rest)
				}
			}
		}
		switch {
		case !documented:
			report(id, "exported %s %s is undocumented", what, id.Name)
		case refs == nil || what == "method" && exemptMethods[id.Name]:
		case kept && reason == "":
			report(id, "%s on %s gives no reason", keepDirective, id.Name)
		case !kept && !refs[id.Name]:
			report(id, "exported %s has no non-test reference", id.Name)
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !exportedRecv(d) {
				continue
			}
			what := "function"
			if d.Recv != nil {
				what = "method"
			}
			check(d.Name, what, d.Doc)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					check(s.Name, "type", d.Doc, s.Doc, s.Comment)
				case *ast.ValueSpec:
					kind := "const"
					if d.Tok == token.VAR {
						kind = "var"
					}
					for _, id := range s.Names {
						check(id, kind, d.Doc, s.Doc, s.Comment)
					}
				}
			}
		}
	}
	return findings
}

// exportedRecv reports whether a declaration's receiver (if any) names an
// exported type: methods on unexported types are internal API.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// internalRefs returns the names referenced by non-test code across the
// tree of the nearest go.mod enclosing dir when dir lies under an internal/
// directory of that tree, and nil otherwise.
func internalRefs(dir string) (map[string]bool, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, nil
		}
		root = parent
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || !slices.Contains(strings.Split(filepath.ToSlash(rel), "/"), "internal") {
		return nil, err
	}
	return references(root)
}

// refCache holds each root's referenced names, built on first use.
var refCache = map[string]map[string]bool{}

// references returns every identifier name used in the non-test .go files
// under root, skipping hidden directories and testdata.  The names that
// top-level declarations and struct fields declare are not references.
func references(root string) (map[string]bool, error) {
	if refs, ok := refCache[root]; ok {
		return refs, nil
	}
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("doclint: parsing %s: %w", path, err)
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declared[s.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declared[id] = true
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, f := range x.Fields.List {
					for _, id := range f.Names {
						declared[id] = true
					}
				}
			case *ast.Ident:
				if !declared[x] {
					refs[x.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	refCache[root] = refs
	return refs, nil
}
