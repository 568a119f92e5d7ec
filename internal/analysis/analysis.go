// This file is the driver core: Analyzer/Pass/Diagnostic (the subset
// of the golang.org/x/tools go/analysis surface the suite needs),
// lint:ignore suppression and the per-package runner. See doc.go for
// the invariant catalogue.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass. It mirrors
// golang.org/x/tools/go/analysis.Analyzer (the subset without facts
// and inter-analyzer dependencies, which this suite does not need).
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //lint:ignore comments. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph description printed by
	// `gpawlint help`.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for its findings.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Path      string // import path, as reported by the build system
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding against the pass's analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite, in stable order: the five
// repo-specific invariant passes.
func All() []*Analyzer {
	return []*Analyzer{
		DetsumCheck,
		HotpathAlloc,
		TracePair,
		RequestLeak,
		RankFailErr,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ignoreRe matches suppression comments:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <justification>
//
// A suppression applies to findings on its own line or, when the
// comment stands alone on a line, to the line below it — the same
// placement contract staticcheck uses. The justification is
// mandatory: an ignore without one is itself reported.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s*(.*)$`)

// suppressions maps filename -> line -> set of suppressed analyzer
// names ("all" suppresses every analyzer).
type suppressions map[string]map[int]map[string]bool

// collectSuppressions scans a package's comments for lint:ignore
// directives. Malformed directives (no justification) are returned as
// diagnostics so they fail the build instead of silently ignoring.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressions, []Diagnostic) {
	sup := suppressions{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintdirective",
						Message:  "lint:ignore directive requires a justification: //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					sup[pos.Filename] = byLine
				}
				names := map[string]bool{}
				for _, n := range strings.Split(m[1], ",") {
					names[strings.TrimSpace(n)] = true
				}
				// The directive covers its own line (trailing-comment
				// form) and the line below it (standalone form).
				addNames(byLine, pos.Line, names)
				addNames(byLine, pos.Line+1, names)
			}
		}
	}
	return sup, bad
}

func addNames(byLine map[int]map[string]bool, line int, names map[string]bool) {
	if byLine[line] == nil {
		byLine[line] = map[string]bool{}
	}
	for n := range names {
		byLine[line][n] = true
	}
}

// filterDiagnostics applies suppressions and the production-code
// policy (findings in _test.go files are dropped: the invariants
// guard runtime code, and tests legitimately sum floats raw, abandon
// requests mid-fault and match error strings).
func filterDiagnostics(fset *token.FileSet, sup suppressions, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") && d.Analyzer != "lintdirective" {
			continue
		}
		if byLine := sup[pos.Filename]; byLine != nil {
			names := byLine[pos.Line]
			if names != nil && (names[d.Analyzer] || names["all"]) {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// RunAnalyzers applies the given analyzers to one loaded package and
// returns the surviving findings sorted by position. Suppressed
// findings and findings in _test.go files are dropped; malformed
// lint:ignore directives are themselves findings.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup, bad := collectSuppressions(pkg.Fset, pkg.Files)
	diags := bad
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Path:      pkg.ImportPath,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
		diags = append(diags, pass.diags...)
	}
	diags = filterDiagnostics(pkg.Fset, sup, diags)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
