package lint

// Package loading: discover, parse and type-check every package in the
// module using only the standard library (go/build for file selection,
// go/parser for syntax, go/types with a source importer for semantics).
// No golang.org/x/tools dependency — beelint must build in the same
// zero-dependency world as the simulator it polices.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package: syntax plus semantics, test
// files excluded. Determinism and unit-safety are production-code
// invariants; tests are free to use wall clocks and raw floats.
type Package struct {
	// Path is the import path ("beesim/internal/des").
	Path string
	// Dir is the absolute directory the files came from.
	Dir string
	// Files are the parsed non-test Go files, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results for the files.
	Types *types.Package
	Info  *types.Info
}

// Loader discovers, parses and type-checks module packages. It caches
// checked packages so shared dependencies are checked once, and
// delegates standard-library imports to a source importer.
type Loader struct {
	Fset *token.FileSet
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// ModulePath is the module's import path prefix ("beesim").
	ModulePath string

	std      types.ImporterFrom
	pkgs     map[string]*Package // by import path
	checking map[string]bool     // import-cycle guard
}

// NewLoader prepares a loader for the module rooted at root. The module
// path is read from go.mod.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:       fset,
		Root:       root,
		ModulePath: modPath,
		std:        std,
		pkgs:       make(map[string]*Package),
		checking:   make(map[string]bool),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// checked from source in the module tree; everything else is assumed to
// be standard library and handed to the source importer.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	// Already-checked packages (including fixture packages registered
	// under synthetic import paths via Check) resolve from the cache,
	// so fixture trees can span multiple packages that import each
	// other.
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	if rel, ok := l.moduleRel(path); ok {
		pkg, err := l.check(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	// Standard library: resolve relative to GOROOT/src so vendored
	// golang.org/x deps inside the stdlib are found.
	return l.std.ImportFrom(path, filepath.Join(runtime.GOROOT(), "src"), 0)
}

// moduleRel reports whether path names a package inside the module and
// returns its slash-separated path relative to the module root.
func (l *Loader) moduleRel(path string) (string, bool) {
	if path == l.ModulePath {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return rest, true
	}
	return "", false
}

// check parses and type-checks the package in dir under the given
// import path, reusing the cache. Fixture packages (testdata dirs) are
// checked the same way the real tree is, just with a synthetic path.
func (l *Loader) check(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.checking[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.checking[importPath] = true
	defer delete(l.checking, importPath)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// LoadModule discovers every package directory in the module (skipping
// testdata, hidden and underscore-prefixed directories) and type-checks
// them all. Packages are returned sorted by import path so downstream
// output is deterministic.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") ||
			strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		if _, err := build.ImportDir(dir, 0); err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				continue
			}
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.check(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
