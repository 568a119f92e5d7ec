package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/gpaw"
	"repro/internal/trace"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) and
	// statistics.median(xs) from CPython.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.q2 || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v, want %v %v %v", tc.xs, s.Q1, s.Median, s.Q3, tc.q1, tc.q2, tc.q3)
		}
		if s.N != len(tc.xs) {
			t.Errorf("summarize(%v).N = %d", tc.xs, s.N)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
	if s := summarize([]float64{5, 1, 9}); s.Min != 1 || s.Max != 9 {
		t.Errorf("min/max = %v/%v, want 1/9", s.Min, s.Max)
	}
}

func TestWithinBound(t *testing.T) {
	for _, tc := range []struct {
		a, b, bound float64
		want        bool
	}{
		{10, 10.9, 0.10, true},
		{10, 11.1, 0.10, false},
		{10, 5, 0, true}, // improving is never a regression
		{10, 10, 0, true},
		{10, 10.0001, 0, false},
		{0, 0, 0.1, true},
		{0, 1, 0.1, false},
	} {
		if got := withinBound(tc.a, tc.b, tc.bound); got != tc.want {
			t.Errorf("withinBound(%v, %v, %v) = %v, want %v", tc.a, tc.b, tc.bound, got, tc.want)
		}
	}
	if w := worsening(8, 10); math.Abs(w-0.25) > 1e-15 {
		t.Errorf("worsening(8, 10) = %v, want 0.25", w)
	}
}

// fakeProbe is a hostProbe that was never started, holding timings
// 1 ms apart from t0 on.
func fakeProbe(t0 time.Time, durs ...float64) *hostProbe {
	h := &hostProbe{}
	for i, d := range durs {
		h.at = append(h.at, t0.Add(time.Duration(i)*time.Millisecond))
		h.dur = append(h.dur, d)
	}
	return h
}

func TestHostProbeSlowdown(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	q := probeQuietSeconds
	// Ten quiet timings, then ten at twice the pace with one stretched
	// tenfold, as a descheduled vCPU does.
	h := fakeProbe(t0, q, q, q, q, q, q, q, q, q, q, 2*q, 2*q, 20*q, 2*q, 2*q, 2*q, 2*q, 2*q, 2*q, 2*q)
	for _, tc := range []struct {
		w    window
		want float64
	}{
		{window{ms(0), ms(10)}, 1},   // the quiet half
		{window{ms(10), ms(20)}, 2},  // the busy half: the outlier is trimmed
		{window{ms(5), ms(15)}, 1.5}, // 1,1,1,1,1,2,2,2,2,20 without the first and the last
		{window{ms(50), ms(60)}, 1},  // no timing inside
		{window{ms(12), ms(13)}, 20}, // a single timing is all there is
	} {
		if got := h.slowdown(tc.w); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("slowdown(%v..%v) = %v, want %v", tc.w.from.Sub(t0), tc.w.to.Sub(t0), got, tc.want)
		}
	}
	// 10 ms at pace 1 and 10 ms at pace 2 are 10 + 10/2^exponent quiet ms.
	for _, exponent := range []float64{1, 1.5} {
		got := h.quietSeconds([]window{{ms(0), ms(10)}, {ms(10), ms(20)}}, exponent)
		if want := 0.010 + 0.010/math.Pow(2, exponent); math.Abs(got-want) > 1e-12 {
			t.Errorf("quietSeconds(exponent %v) = %v, want %v", exponent, got, want)
		}
	}
}

func TestHostProbeStopsItsGoroutine(t *testing.T) {
	h := startHostProbe()
	time.Sleep(20 * time.Millisecond)
	h.stop() // returns only once the goroutine has exited
	n := len(h.at)
	if n == 0 || len(h.dur) != n {
		t.Fatalf("%d timings, %d durations after 20 ms", n, len(h.dur))
	}
	if sl := h.slowdown(window{h.at[0], h.at[n-1].Add(time.Second)}); !(sl > 0) {
		t.Errorf("slowdown over the probe's life = %v", sl)
	}
	time.Sleep(3 * probeEvery)
	if len(h.at) != n {
		t.Errorf("probe kept timing after stop: %d -> %d", n, len(h.at))
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !validName(name) {
			t.Errorf("name %q is not of the form ^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadOrder {
		check(w)
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, have %d", w, len(why))
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %q: unit %q", d.Name, d.Unit)
			}
			if d.Bound < 0 || d.Bound > 0.25 {
				t.Errorf("metric %q: bound %v outside [0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	for _, bad := range []string{"", "-x", "a b", "a/b", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	if len(workloadOrder) < 2 || len(workloadOrder) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: outside the contract's limits",
			len(workloadOrder), len(endToEnd), len(perLayer))
	}
}

// benchmarkJSON mirrors the contract's schema for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONListsWhatTheProgramPrints holds BENCHMARK.json at
// the repository root to the program's own tables.
func TestBenchmarkJSONListsWhatTheProgramPrints(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloadOrder))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadOrder[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d = %q / %q, program has %q / %q", i, w.Name, w.Why, workloadOrder[i], workloadWhy[workloadOrder[i]])
		}
	}
	compare := func(kind string, got []jsonMetric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics, program has %d", kind, len(got), len(defs))
		}
		for i, g := range got {
			d := defs[i]
			if g.Name != d.Name || g.Unit != d.Unit {
				t.Errorf("%s[%d] = %s [%s], program has %s [%s]", kind, i, g.Name, g.Unit, d.Name, d.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s %s: bound %v, program has %v", kind, g.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	hasSetup := false
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s], lower is better")
	}
}

func TestTimedStorePassesBytesThrough(t *testing.T) {
	inner := gpaw.NewMemStore()
	st := &timedStore{inner: inner}
	var _ gpaw.Store = st
	var _ gpaw.StepDropper = st
	shard := []byte{0, 1, 2, 254, 255}
	for step := 1; step <= 2; step++ {
		for rank := 0; rank < 3; rank++ {
			if err := st.PutShard(step, rank, shard); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(step, []byte("manifest")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.GetShard(2, 1)
	if err != nil || !bytes.Equal(got, shard) {
		t.Errorf("GetShard = %v, %v; want %v", got, err, shard)
	}
	if direct, _ := inner.GetShard(2, 1); !bytes.Equal(direct, shard) {
		t.Errorf("inner store holds %v, want %v", direct, shard)
	}
	if man, err := st.Manifest(1); err != nil || string(man) != "manifest" {
		t.Errorf("Manifest = %q, %v", man, err)
	}
	if st.shardsPut.Load() != 6 || st.bytesPut.Load() != 30 || st.commits.Load() != 2 || st.manifestBytes.Load() != 16 {
		t.Errorf("counters: shards %d bytes %d commits %d manifest %d",
			st.shardsPut.Load(), st.bytesPut.Load(), st.commits.Load(), st.manifestBytes.Load())
	}
	if err := st.Drop(1); err != nil {
		t.Fatal(err)
	}
	if steps, _ := st.Steps(); !reflect.DeepEqual(steps, []int{2}) {
		t.Errorf("after Drop(1) steps = %v, want [2]", steps)
	}
	if _, err := st.GetShard(9, 0); err == nil {
		t.Error("GetShard of a missing step: want the inner store's error")
	}
}

func TestSolverCounts(t *testing.T) {
	ev := func(names ...string) []trace.Event {
		out := make([]trace.Event, len(names))
		for i, n := range names {
			out[i].Name = n
		}
		return out
	}
	// Spans arrive in completion order: children before their parent.
	applies, cg := solverCounts(ev(
		"compute.interior", "eigen.apply",
		"compute.sweep", "eigen.apply",
		"compute.interior", "compute.interior", "compute.interior", "poisson.cg", // residual + 2 iterations
		"poisson.cg", // zero right-hand side: no sweep at all
		"compute.sweep", "compute.sweep", "poisson.cg", "poisson.hartree",
	))
	if applies != 2 || cg != 3 {
		t.Errorf("solverCounts = %d applies, %d CG iterations; want 2, 3", applies, cg)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := newInputs(7, quickSizes), newInputs(7, quickSizes), newInputs(8, quickSizes)
	if a.vextHash() != b.vextHash() {
		t.Error("the same seed gave different potentials")
	}
	if a.vextHash() == c.vextHash() {
		t.Error("different seeds gave the same potential")
	}
	if a.fdField(1, 2, 3, 4) != b.fdField(1, 2, 3, 4) || a.fdField(1, 2, 3, 4) == c.fdField(1, 2, 3, 4) {
		t.Error("fd_batch source field does not follow the seed")
	}
	// Seed 0 is the centred isotropic trap: symmetric under reflection.
	z := newInputs(0, quickSizes)
	n := quickSizes.scfN
	if z.vext.At(1, 2, 3) != z.vext.At(n-2, n-3, n-4) || z.vext.At(1, 2, 3) != z.vext.At(3, 1, 2) {
		t.Error("seed 0 potential is not centred and isotropic")
	}
}

// TestQuickRun drives the whole command at -quick size: every workload,
// untraced then traced, and holds what it prints to the metric tables.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small SCF and FD workloads")
	}
	var out bytes.Buffer
	dir := t.TempDir()
	ok, err := run(options{workloads: workloadOrder, seed: 1, reps: 1, trace: "both", sz: quickSizes,
		traceOut: dir, out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("an operation failed its checks:\n%s", out.String())
	}
	var results []result
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("%v in %q", err, line)
			}
			results = append(results, r)
		}
	}
	if len(results) != 2*len(workloadOrder) {
		t.Fatalf("%d result lines, want %d", len(results), 2*len(workloadOrder))
	}
	for i, r := range results {
		defs := endToEnd
		if i%2 == 1 {
			defs = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("result %d: correct %v attempted %d failed %d", i, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("result %d: %d metrics, want %d", i, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, found := r.Metrics[d.Name]
			if !found || m.Unit != d.Unit {
				t.Errorf("result %d: metric %s = %+v (present %v), want unit %s", i, d.Name, m, found, d.Unit)
			}
			if i%2 == 0 && !(m.Value > 0) {
				t.Errorf("result %d: end-to-end metric %s = %v, must never be 0", i, d.Name, m.Value)
			}
		}
		if i%2 == 1 {
			if d := r.Metrics["trace.dropped"].Value; d != 0 {
				t.Errorf("%s: tracer dropped %v events", workloadOrder[i/2], d)
			}
			if it := r.Metrics["gpaw.scf_iters"].Value; (it > 0) != (workloadOrder[i/2] != "fd_batch") {
				t.Errorf("%s: gpaw.scf_iters = %v", workloadOrder[i/2], it)
			}
		}
	}
	for _, w := range workloadOrder {
		for _, suffix := range []string{".profile.json", ".trace.json"} {
			if fi, err := os.Stat(dir + "/" + w + suffix); err != nil || fi.Size() == 0 {
				t.Errorf("-trace-out did not write %s%s: %v", w, suffix, err)
			}
		}
	}
}
