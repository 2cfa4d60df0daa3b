// Command beelint runs the beesim determinism & unit-safety analyzer
// suite (internal/lint) over the module and reports findings.
//
// Usage:
//
//	beelint [-C dir] [-format text|json|sarif] [-list] [-local] [-fix]
//	        [-baseline file] [-write-baseline] [path prefixes...]
//
// With no arguments every package in the module is checked, including
// the module-wide interprocedural pass (disable with -local).
// Positional arguments restrict reporting to packages whose
// module-relative path has one of the given prefixes ("internal/des",
// "cmd", ...); the conventional "./..." means everything and is
// accepted for Makefile ergonomics.
//
// -fix applies the mechanical rewrites attached to fixable findings
// (sorted map iteration, compensated summation, seeded-rng
// substitution) and reports only what remains. -baseline ratchets: the
// build fails only on findings beyond the checked-in inventory, and
// stale inventory entries are warned about so the baseline only
// shrinks; -write-baseline regenerates it.
//
// Exit status: 0 when clean (or nothing beyond the baseline), 1 when
// findings were reported, 2 on usage or load errors. Output order is
// byte-stable across runs — text, -format json and -format sarif — so
// CI diffs are meaningful.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"beesim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("beelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", "", "module root (default: nearest go.mod above the working directory)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	list := fs.Bool("list", false, "list the analyzers and exit")
	local := fs.Bool("local", false, "file-local analysis only (skip the interprocedural pass)")
	fix := fs.Bool("fix", false, "apply mechanical fixes to fixable findings and report the rest")
	baselinePath := fs.String("baseline", "", "ratchet against this baseline file (new findings fail, stale entries warn)")
	writeBaseline := fs.Bool("write-baseline", false, "regenerate the -baseline file from the current findings and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: beelint [-C dir] [-format text|json|sarif] [-list] [-local] [-fix] [-baseline file] [-write-baseline] [path prefixes...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "beelint: unknown format %q\n", *format)
		return 2
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintln(stderr, "beelint: -write-baseline requires -baseline")
		return 2
	}

	root := *dir
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
		root, err = lint.FindModuleRoot(wd)
		if err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
	}

	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "beelint:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(stderr, "beelint:", err)
		return 2
	}

	prefixes := prefixFilter(fs.Args())
	runner := lint.NewRunner()
	var findings []lint.Finding
	for _, pkg := range pkgs {
		if !prefixes.match(loader.ModulePath, pkg.Path) {
			continue
		}
		findings = append(findings, runner.RunPackage(pkg, loader.Fset)...)
	}
	if !*local {
		// The interprocedural pass always sees the whole module (taint
		// crosses package boundaries); prefixes only filter which
		// findings are reported.
		mod := lint.NewModule(pkgs, loader.Fset, root)
		for _, f := range mod.InterproceduralFindings() {
			if prefixes.matchFile(root, f.File) {
				findings = append(findings, f)
			}
		}
	}

	if *fix {
		fixer := &lint.Fixer{Fset: loader.Fset}
		results, err := fixer.Apply(findings)
		if err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
		fixed := 0
		for _, r := range results {
			if err := os.WriteFile(r.File, r.Content, 0o644); err != nil {
				fmt.Fprintln(stderr, "beelint:", err)
				return 2
			}
			fixed += r.Applied
			if rel, err := filepath.Rel(root, r.File); err == nil {
				fmt.Fprintf(stdout, "beelint: fixed %d issue(s) in %s\n", r.Applied, filepath.ToSlash(rel))
			}
		}
		// Fixed findings are resolved; report what -fix cannot do.
		kept := findings[:0]
		for _, f := range findings {
			if !f.Fixable {
				kept = append(kept, f)
			}
		}
		findings = kept
	}

	// Report module-relative paths: stable regardless of checkout
	// location, and friendlier to read.
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].File); err == nil {
			findings[i].File = filepath.ToSlash(rel)
		}
	}
	lint.SortFindings(findings)

	if *writeBaseline {
		if err := lint.NewBaseline(findings).Write(*baselinePath); err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "beelint: wrote baseline of %d finding(s) to %s\n", len(findings), *baselinePath)
		return 0
	}
	if *baselinePath != "" {
		base, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
		fresh, stale := base.Diff(findings)
		for _, e := range stale {
			fmt.Fprintf(stderr, "beelint: baseline entry is stale (debt paid — run -write-baseline): %s %s x%d\n",
				e.File, e.Check, e.Count)
		}
		findings = fresh
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
	case "sarif":
		if err := lint.WriteSARIF(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "beelint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// prefixes filters packages by module-relative path prefix.
type prefixes []string

func prefixFilter(args []string) prefixes {
	var ps prefixes
	for _, a := range args {
		a = strings.TrimSuffix(a, "...")
		a = strings.TrimSuffix(a, "/")
		a = strings.TrimPrefix(a, "./")
		if a == "" || a == "." {
			return nil // "./..." and "." mean the whole module
		}
		ps = append(ps, filepath.ToSlash(a))
	}
	return ps
}

// matchFile filters a finding by its file's module-relative directory,
// used for interprocedural findings (which belong to call sites, not
// to the packages the walk started from).
func (ps prefixes) matchFile(root, file string) bool {
	if len(ps) == 0 {
		return true
	}
	rel, err := filepath.Rel(root, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return false
	}
	dir := filepath.ToSlash(filepath.Dir(rel))
	for _, p := range ps {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

func (ps prefixes) match(modPath, pkgPath string) bool {
	if len(ps) == 0 {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, modPath), "/")
	if rel == "" {
		rel = "."
	}
	for _, p := range ps {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}
