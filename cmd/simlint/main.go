// Command simlint runs the repository's static simulation-discipline suite
// (internal/analysis): determinism, poolcheck, timercheck, unitsafe, and
// hotpath. The suite is interprocedural — a module-wide
// call graph with interface devirtualization feeds hot-path reachability
// and bottom-up packet-ownership summaries — so run it over the whole
// module (./...) for full-precision results; narrowing the argument list
// narrows where findings are *reported*, while facts still flow in from the
// requested packages' in-tree dependencies.
//
// Usage:
//
//	simlint ./...          # whole module (from anywhere inside it)
//	simlint ./internal/lb  # specific directories
//	simlint -json ./...    # one JSON object per finding (JSON Lines)
//
// Findings print as file:line:col: analyzer: message and exit status 1.
// With -json each finding is instead one {"analyzer","file","line","col",
// "message"} object per line on stdout, for CI artifacts and tooling; exit
// status semantics are unchanged.
// Suppress a justified finding with an annotation on the same line or the
// line above (the reason is mandatory):
//
//	//simlint:allow(determinism) wall-clock only feeds the Wall perf counter
//
// See TESTING.md, "Static analysis tier", for what each analyzer enforces.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/rlb-project/rlb/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "print findings as JSON Lines (one object per finding)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-json] [./... | dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, modPath, err := analysis.FindModule(cwd)
	if err != nil {
		fatal(err)
	}

	var paths []string
	for _, arg := range args {
		ps, err := expand(arg, cwd, root, modPath)
		if err != nil {
			fatal(err)
		}
		paths = append(paths, ps...)
	}

	diags, err := analysis.RunPackages(analysis.NewLoader(analysis.ModuleResolver(root, modPath)), paths)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if err := analysis.PrintJSON(os.Stdout, diags); err != nil {
			fatal(err)
		}
	} else if len(diags) > 0 {
		analysis.Print(os.Stdout, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// expand turns one command-line pattern into import paths. "./..." and
// "dir/..." recurse; plain directories map to their single package.
func expand(arg, cwd, root, modPath string) ([]string, error) {
	rec := false
	if strings.HasSuffix(arg, "/...") {
		rec = true
		arg = strings.TrimSuffix(arg, "/...")
		if arg == "." {
			arg = cwd
		}
	}
	abs := arg
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(cwd, abs)
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("simlint: %s is outside module %s", arg, modPath)
	}
	sub := modPath
	if rel != "." {
		sub = modPath + "/" + filepath.ToSlash(rel)
	}
	if !rec {
		return []string{sub}, nil
	}
	all, err := analysis.ModulePackages(abs, sub)
	if err != nil {
		return nil, err
	}
	return all, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simlint:", err)
	os.Exit(2)
}
