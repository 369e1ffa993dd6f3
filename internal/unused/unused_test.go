// Package unused checks that every exported identifier under internal/ has
// a caller outside tests. It is a test-only package: `make unused` runs it
// verbosely, and the tier-1 `go test ./...` runs it too, so an export that
// only tests reach fails CI.
package unused

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// root is the module root, seen from this package's directory.
const root = "../.."

// excluded are the directories whose files are neither declarations to check
// nor callers: the experiment harness and its CLI drive the system from the
// outside.
var excluded = []string{"internal/experiments", "cmd/bench"}

// callerDirs are the trees whose non-test files count as callers.
var callerDirs = []string{"internal", "cmd", "benchmark"}

// allowed names each export kept without a non-test caller, with the group
// of DESIGN.md §11 "Exports kept without a production caller" that justifies
// it.
var allowed = map[string]string{
	// (b) the paper's baselines and ablations, run by internal/experiments.
	"baseline.NadeefDetect":            "DESIGN.md §11 (b)",
	"baseline.SQLDetect":               "DESIGN.md §11 (b)",
	"baseline.DetectOnly":              "DESIGN.md §11 (b)",
	"baseline.Result.UniqueViolations": "DESIGN.md §11 (b)",
	"join.UCrossProduct":               "DESIGN.md §11 (b)",
	"join.CrossProduct":                "DESIGN.md §11 (b)",
	"engine.Filter":                    "DESIGN.md §11 (b)",
	// (c) the Iterate vocabulary a UDF rule is written in.
	"core.PairsUnique":  "DESIGN.md §11 (c)",
	"core.PairsOrdered": "DESIGN.md §11 (c)",
	"core.ItemList":     "DESIGN.md §11 (c)",
	// (d) seams that tests of other packages read.
	"engine.Context.MemoryManager": "DESIGN.md §11 (d)",
	"spill.Manager.Reserved":       "DESIGN.md §11 (d)",
	"trace.ValidateChromeTrace":    "DESIGN.md §11 (d)",
	"model.Violation.TupleIDs":     "DESIGN.md §11 (d)",
}

// decl is one exported declaration: its package-qualified name and the key
// a caller's mention counts under — the method name for a method, the
// import path and name for anything else.
type decl struct {
	qualified, key, pos string
}

// TestNoTestOnlyExports lists every exported top-level identifier or method
// under internal/ that no non-test file mentions anywhere but at a
// declaration, minus the allowlist. A method counts as mentioned wherever
// its name appears. Any other declaration counts only where it is named
// through its own package: as pkg.Name where pkg imports it, or as a bare
// Name inside the package itself — so strings.Cut does not keep an unused
// Cut alive in another package.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []decl
	mentions := map[string]int{}
	for _, dir := range callerDirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			if d.IsDir() {
				if slices.Contains(excluded, rel) || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := "bigdansing/" + filepath.ToSlash(filepath.Dir(rel))
			var declared map[*ast.Ident]string
			if strings.HasPrefix(rel, "internal/") {
				declared = exported(f)
				for id, name := range declared {
					key := pkg + "." + name
					if strings.Contains(name, ".") {
						key = id.Name
					}
					decls = append(decls, decl{
						qualified: f.Name.Name + "." + name,
						key:       key,
						pos:       fset.Position(id.Pos()).String(),
					})
				}
			}
			imports := map[string]string{} // name in this file -> import path
			for _, im := range f.Imports {
				path := strings.Trim(im.Path.Value, `"`)
				name := path[strings.LastIndex(path, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = path
			}
			selected := map[*ast.Ident]bool{} // the Sel of a selector: a field, method or another package's name
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selected[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						mentions[imports[x.Name]+"."+n.Sel.Name]++
					}
				case *ast.Ident:
					if declared[n] != "" {
						break
					}
					mentions[n.Name]++
					if !selected[n] {
						mentions[pkg+"."+n.Name]++
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found; is the module root right?")
	}
	var unused []string
	for _, d := range decls {
		if mentions[d.key] > 0 {
			continue
		}
		if why, ok := allowed[d.qualified]; ok {
			t.Logf("kept %s: %s", d.qualified, why)
			continue
		}
		unused = append(unused, d.qualified+" ("+d.pos+")")
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("exported but only tests reach it: %s", u)
	}
	if len(unused) > 0 {
		t.Log("delete it, move it into a _test.go file, or justify it in DESIGN.md and the allowlist")
	}
	for q := range allowed {
		i := slices.IndexFunc(decls, func(d decl) bool { return d.qualified == q })
		switch {
		case i < 0:
			t.Errorf("allowlist names %s, which is no longer declared", q)
		case mentions[decls[i].key] > 0:
			t.Errorf("allowlist names %s, which a non-test file now mentions", q)
		}
	}
}

// exported returns a file's exported top-level declarations and methods,
// each with its name within the package: Type.Method for a method.
func exported(f *ast.File) map[*ast.Ident]string {
	ids := map[*ast.Ident]string{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				ids[d.Name] = receiver(d) + d.Name.Name
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						ids[s.Name] = s.Name.Name
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							ids[n] = n.Name
						}
					}
				}
			}
		}
	}
	return ids
}

// receiver is "Type." for a method, "" for a function.
func receiver(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr: // a generic receiver, T[K]
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
