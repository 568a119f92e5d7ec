package analysis

import (
	"path/filepath"
	"testing"
)

func TestDetsumCheckTestdata(t *testing.T) {
	// Loaded under a guarded import path: the reductions are flagged.
	runTestdata(t, "detsumcheck", "repro/internal/stencil", []*Analyzer{DetsumCheck})
}

func TestDetsumCheckUnguardedPathIsExempt(t *testing.T) {
	// The very same files under an unguarded path produce nothing:
	// the invariant binds the solver packages, not all float code.
	pkg, err := LoadDir(filepath.Join("testdata", "detsumcheck"), "repro/internal/linalg")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{DetsumCheck})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unguarded package flagged: %s: %s", pkg.Fset.Position(d.Pos), d.Message)
	}
}

func TestHotpathAllocTestdata(t *testing.T) {
	runTestdata(t, "hotpathalloc", "repro/internal/hot", []*Analyzer{HotpathAlloc})
}

func TestTracePairTestdata(t *testing.T) {
	runTestdata(t, "tracepair", "repro/internal/ops", []*Analyzer{TracePair})
}

func TestRequestLeakTestdata(t *testing.T) {
	runTestdata(t, "requestleak", "repro/internal/proto", []*Analyzer{RequestLeak})
}

func TestRankFailErrTestdata(t *testing.T) {
	runTestdata(t, "rankfailerr", "repro/internal/ft", []*Analyzer{RankFailErr})
}

// TestSeededDefects runs the whole suite over deliberately broken
// copies of real solver code under a guarded import path, proving each
// analyzer catches its seed (the want comments name the analyzers).
func TestSeededDefects(t *testing.T) {
	runTestdata(t, "seeded", "repro/internal/gpaw", All())
}

// TestMalformedDirectiveIsReported asserts that a lint:ignore without
// a justification is itself a finding, so suppressions cannot silently
// rot.
func TestMalformedDirectiveIsReported(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "lintdirective"), "repro/internal/misc")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "lintdirective" {
		t.Fatalf("want exactly one lintdirective finding, got %+v", diags)
	}
	if pos := pkg.Fset.Position(diags[0].Pos); pos.Line != 8 {
		t.Errorf("finding at line %d, want the directive line 8", pos.Line)
	}
}

// TestRepoFindingFree is the repo-wide regression: the full analyzer
// suite over every production package must come back clean, so a new
// raw reduction, leaked request, unmatched span, hot-path allocation
// or stringly-typed failure check fails `go test` even without the
// vet wiring.
func TestRepoFindingFree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	pkgs, err := Load("", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern repro/... should cover the tree", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}
