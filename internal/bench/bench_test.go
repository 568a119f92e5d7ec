package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bgpsim"
)

func TestTable1ContainsPaperValues(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"850 MHz", "64KB per core", "8MB", "2GB",
		"13.6GB/s", "13.6 Gflops/node", "425MB/s", "5.1GB/s", "PowerPC 450"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, s)
		}
	}
}

func TestFigure2ShapeQuick(t *testing.T) {
	e := Figure2(Options{Quick: true})
	if len(e.Rows) < 4 {
		t.Fatalf("too few rows: %d", len(e.Rows))
	}
	// First row (1 byte) must be far below the last row (10 MB).
	first := e.Rows[0][1]
	last := e.Rows[len(e.Rows)-1][1]
	if first >= last && len(first) >= len(last) {
		t.Fatalf("bandwidth not increasing: %s .. %s", first, last)
	}
}

func TestFigure5Quick(t *testing.T) {
	for _, batching := range []bool{false, true} {
		e := Figure5(batching, Options{Quick: true})
		if len(e.Rows) != 4 {
			t.Fatalf("rows = %d", len(e.Rows))
		}
		if e.Rows[0][0] != "1" {
			t.Fatal("first row must be the 1-core baseline")
		}
		// Baseline speedup ~1.
		if e.Rows[0][1] != "1" {
			t.Fatalf("flat original at 1 core = %s, want 1", e.Rows[0][1])
		}
	}
}

func TestFigure6QuickOrdering(t *testing.T) {
	e := Figure6(Options{Quick: true})
	last := e.Rows[len(e.Rows)-1]
	// At 16384 cores: hybrid multiple (col 3) beats flat optimized
	// (col 2) beats flat original (col 1).
	var orig, opt, hyb float64
	if _, err := sscan(last[1], &orig); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(last[2], &opt); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(last[3], &hyb); err != nil {
		t.Fatal(err)
	}
	if !(hyb < opt && opt < orig) {
		t.Fatalf("ordering broken at 16k: orig=%g opt=%g hyb=%g", orig, opt, hyb)
	}
	// Absolute magnitude lands in the paper's ballpark (~40 s for the
	// original at 16k with the calibrated application count).
	if orig < 20 || orig > 60 {
		t.Fatalf("flat original at 16k = %gs, want near the paper's ~40s", orig)
	}
}

func TestFigure7QuickHeadline(t *testing.T) {
	e := Figure7(Options{Quick: true})
	last := e.Rows[len(e.Rows)-1]
	var hyb float64
	if _, err := sscan(last[3], &hyb); err != nil {
		t.Fatal(err)
	}
	if hyb < 13 || hyb > 24 {
		t.Fatalf("hybrid speedup at 16k = %g, paper ~16.5", hyb)
	}
}

func TestHeadlineQuick(t *testing.T) {
	e := Headline(Options{Quick: true})
	s := e.String()
	for _, want := range []string{"1.94x", "36%", "70%", "identical"} {
		if !strings.Contains(s, want) {
			t.Fatalf("headline missing paper reference %q:\n%s", want, s)
		}
	}
	if len(e.Rows) != 5 {
		t.Fatalf("headline rows = %d", len(e.Rows))
	}
}

func TestAblationsRunQuick(t *testing.T) {
	opts := Options{Quick: true}
	for _, e := range []*Experiment{
		AblationBatchSweep(opts),
		AblationBatchRamp(opts),
		AblationThreadMode(opts),
		AblationMeshVsTorus(opts),
		AblationElementSize(opts),
		AblationMasterOnlySync(opts),
	} {
		if len(e.Rows) == 0 {
			t.Fatalf("%s produced no rows", e.Name)
		}
		if e.String() == "" {
			t.Fatalf("%s renders empty", e.Name)
		}
	}
}

func TestExperimentFprintAlignment(t *testing.T) {
	e := &Experiment{Name: "X", Caption: "c", Header: []string{"a", "bb"}}
	e.AddRow("1", "2")
	e.AddNote("n=%d", 5)
	s := e.String()
	if !strings.Contains(s, "== X ==") || !strings.Contains(s, "note: n=5") {
		t.Fatalf("render: %s", s)
	}
}

func TestOptionsParamsOverride(t *testing.T) {
	p := bgpsim.DefaultParams()
	p.KernelEff = 0.5
	o := Options{Params: p}
	if o.params().KernelEff != 0.5 {
		t.Fatal("params override ignored")
	}
	if (Options{}).params().KernelEff != bgpsim.DefaultParams().KernelEff {
		t.Fatal("default params not used")
	}
}

// sscan parses a float out of a table cell.
func sscan(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}

func fmtSscan(s string, v *float64) (int, error) {
	var f float64
	n, err := fmt.Sscan(s, &f)
	*v = f
	return n, err
}
