package datacron

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachableAllowed names the internal packages no program imports, each
// with the reason it may stay. An entry that becomes reachable, or whose
// package is gone, fails the test, so the list cannot go stale.
var unreachableAllowed = map[string]string{
	"internal/cluster/harness": "test harness: only its own tests use it",
}

// goPackage is one directory's non-test Go files.
type goPackage struct {
	name    string
	imports []string
}

// TestNoUnreachableInternalPackages fails when an internal package cannot
// be reached through the imports of non-test files from a main package
// under cmd/ or examples/: code that no program runs is deleted, not kept.
// bench/ is its own module and is not a root.
func TestNoUnreachableInternalPackages(t *testing.T) {
	const module = "github.com/datacron-project/datacron/"
	pkgs := map[string]*goPackage{} // by slash path relative to the module root
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		p := pkgs[dir]
		if p == nil {
			p = &goPackage{name: f.Name.Name}
			pkgs[dir] = p
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if rel, ok := strings.CutPrefix(ip, module); ok {
				p.imports = append(p.imports, rel)
			}
		}
	}

	reached := map[string]bool{}
	var queue []string
	for dir, p := range pkgs {
		if p.name == "main" && (strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")) {
			reached[dir] = true
			queue = append(queue, dir)
		}
	}
	if len(queue) == 0 {
		t.Fatal("no main package under cmd/ or examples/")
	}
	for len(queue) > 0 {
		p := pkgs[queue[0]]
		queue = queue[1:]
		for _, imp := range p.imports {
			if !reached[imp] {
				reached[imp] = true
				queue = append(queue, imp)
			}
		}
	}

	var dirs []string
	for dir := range pkgs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") || reached[dir] {
			continue
		}
		if _, ok := unreachableAllowed[dir]; !ok {
			t.Errorf("%s: no program under cmd/ or examples/ imports it; delete it, or allow it with a reason", dir)
		}
	}
	for dir := range unreachableAllowed {
		switch {
		case pkgs[dir] == nil:
			t.Errorf("%s is allowed to be unreachable but no longer exists: delete its entry", dir)
		case reached[dir]:
			t.Errorf("%s is allowed to be unreachable but a program imports it: delete its entry", dir)
		}
	}
}

// goFiles returns every .go file of the module, tests included, outside
// dot directories, testdata/ and bench/ (its own module).
func goFiles(t *testing.T) []string {
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}
