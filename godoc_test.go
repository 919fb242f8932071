package secreta

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInternalPackagesDocumented requires every internal/* package to
// carry a package doc comment: a `// Package <name>` line in the comment
// group attached to a package clause of one of its non-test files. A
// blank line between the comment and the clause detaches it, as godoc
// sees it.
func TestInternalPackagesDocumented(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		n++
		if !packageDocumented(t, filepath.Join("internal", d.Name()), d.Name()) {
			t.Errorf("package %s has no package doc comment (want `// Package %s ...` attached to a package clause in internal/%s)",
				d.Name(), d.Name(), d.Name())
		}
	}
	if n == 0 {
		t.Fatal("no internal packages found")
	}
}

// packageDocumented reports whether a non-test file in dir has a doc
// comment naming package name.
func packageDocumented(t *testing.T, dir, name string) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc == nil {
			continue
		}
		for _, c := range f.Doc.List {
			rest, ok := strings.CutPrefix(c.Text, "// Package "+name)
			if ok && (rest == "" || strings.ContainsAny(rest[:1], " .,:")) {
				return true
			}
		}
	}
	return false
}
