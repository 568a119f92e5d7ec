// Command gpawlint is the repo's static-analysis multichecker. It
// bundles the five invariant analyzers from internal/analysis
// (detsumcheck, hotpathalloc, tracepair, requestleak, rankfailerr)
// and runs in two modes:
//
//	gpawlint ./...             # standalone: load, analyze, report
//	go vet -vettool=$(which gpawlint) ./...   # unit-checker protocol
//
// The second form speaks the (unpublished) go vet tool protocol:
// -V=full for build caching, -flags for flag discovery, and a
// JSON unit.cfg describing one compilation unit per invocation —
// the same contract golang.org/x/tools/go/analysis/unitchecker
// implements. Findings print as file:line:col: [analyzer] message;
// the exit status is non-zero when any finding survives
// lint:ignore suppression.
//
// Stock vet is complementary, not replaced: CI runs `go vet ./...`
// (printf, copylocks, atomics, ...) alongside this tool.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// version participates in go vet's build-cache key: bump it whenever
// analyzer behavior changes so cached clean results are invalidated.
const version = "v9.2.0"

func main() {
	args := os.Args[1:]

	// go vet protocol: describe the executable for build caching.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("%s version %s\n", filepath.Base(os.Args[0]), version)
			return
		}
	}
	// go vet protocol: describe flags (we expose none).
	for _, a := range args {
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return
		}
	}

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0]))
	}

	fs := flag.NewFlagSet("gpawlint", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	listA := fs.Bool("analyzers", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gpawlint [-only a,b] [packages]\n"+
			"       go vet -vettool=$(which gpawlint) [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	fs.Parse(args)
	if *listA {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(runStandalone(patterns, *only))
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analysis.All(), nil
	}
	var as []*analysis.Analyzer
	for _, n := range strings.Split(only, ",") {
		a := analysis.ByName(strings.TrimSpace(n))
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		as = append(as, a)
	}
	return as, nil
}

func runStandalone(patterns []string, only string) int {
	analyzers, err := selectAnalyzers(only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpawlint:", err)
		return 2
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpawlint:", err)
		return 2
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpawlint:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			exit = 1
		}
	}
	return exit
}

// unitConfig mirrors the JSON the go command writes for each vetted
// compilation unit (the x/tools unitchecker.Config contract).
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpawlint:", err)
		return 2
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gpawlint: decoding %s: %v\n", cfgFile, err)
		return 2
	}
	// Always write the facts file: the go command caches it as the
	// unit's output. This suite exchanges no facts, so it is empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "gpawlint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		// Dependency units are analyzed for facts only; none here.
		return 0
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	resolve := func(importPath string) string {
		if p, ok := cfg.ImportMap[importPath]; ok {
			return p
		}
		return importPath
	}
	pkg, err := analysis.TypeCheckUnit(fset, cfg.ImportPath, cfg.GoFiles, imp, resolve, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "gpawlint:", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(pkg, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpawlint:", err)
		return 2
	}
	exit := 0
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", relPosition(fset, d.Pos, cfg.Dir), d.Analyzer, d.Message)
		exit = 1
	}
	return exit
}

// relPosition renders a position with the unit directory trimmed, the
// way vet prints paths relative to the package directory.
func relPosition(fset *token.FileSet, pos token.Pos, dir string) string {
	p := fset.Position(pos)
	if dir != "" {
		if rel, err := filepath.Rel(dir, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			p.Filename = rel
		}
	}
	return p.String()
}
