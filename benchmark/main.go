// Command benchmark is this repository's benchmark: time to a converged
// SCF — serial, on 8 eager ranks with checkpoint and resume, and on 64
// ranks under the calibrated Blue Gene/P model — and the paper's
// finite-difference operation under its four programming approaches,
// with a per-layer ledger from a separate traced pass. README.md in
// this directory documents every metric and how they interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/grid"
	"repro/internal/trace"
)

// buildDir is the one directory, relative to the working directory, the
// benchmark writes scratch files under.
const buildDir = ".bench_build"

type options struct {
	workloads []string
	seed      int64
	seconds   float64
	reps      int // > 0: exactly this many operations instead of a time limit
	trace     string
	sz        sizes
	selfcheck bool
	traceOut  string
	out       io.Writer
}

// result is the last line of a pass: the contract's JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var workloads string
	var quick bool
	flag.StringVar(&workloads, "workload", strings.Join(workloadOrder, ","), "comma-separated workloads to run")
	flag.Int64Var(&o.seed, "seed", 0, "input seed; 0 is the centred isotropic trap the golden energies belong to")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long each untraced pass keeps starting operations")
	flag.IntVar(&o.reps, "reps", 0, "run exactly this many operations per pass instead of -seconds")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass; both")
	flag.BoolVar(&quick, "quick", false, "8^3/16^3 grids and one operation per pass: a smoke run for the package's tests")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced passes twice and compare them against the bounds")
	flag.StringVar(&o.traceOut, "trace-out", "", "directory to write each traced pass's profile JSON and Chrome trace into")
	flag.Parse()
	o.workloads = strings.Split(workloads, ",")
	o.sz, o.out = fullSizes, os.Stdout
	if quick {
		o.sz = quickSizes
		if o.reps == 0 {
			o.reps = 1
		}
	}
	// More than 4 threads only adds scheduling noise to worlds of 8 and
	// 64 goroutine ranks; fewer than the host has would idle a core.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the requested passes and reports whether every operation
// passed its checks (and, with selfcheck, every bound held).
func run(o options) (bool, error) {
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return false, fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	in := newInputs(o.seed, o.sz)
	fmt.Fprintf(o.out, "# machine: %s\n", machineLine())
	fmt.Fprintf(o.out, "# inputs: seed=%d scf=%d^3 vext_fnv64=%016x fd=%dx%d^3\n",
		o.seed, o.sz.scfN, in.vextHash(), o.sz.fdGrids, o.sz.fdN)
	ok := true
	for _, name := range o.workloads {
		w, err := newWorkload(name, in)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(o.out, "# workload %s: %s\n", name, workloadWhy[name])
		if err := prepare(o, w); err != nil {
			if err := emit(o.out, failedPass(o, w, "reference", err)); err != nil {
				return false, err
			}
			ok = false
			continue
		}
		if o.selfcheck {
			ok = selfcheck(o, w) && ok
			continue
		}
		if o.trace != "1" {
			res, _ := untracedPass(o, w)
			if err := emit(o.out, res); err != nil {
				return false, err
			}
			ok = ok && res.Correct
		}
		if o.trace != "0" {
			res, err := tracedPass(o, w)
			if err != nil {
				return false, err
			}
			if err := emit(o.out, res); err != nil {
				return false, err
			}
			ok = ok && res.Correct
		}
	}
	return ok, nil
}

// failedPass reports a pass that could not measure anything as one
// attempted, failed operation.
func failedPass(o options, w *workload, what string, err error) result {
	fmt.Fprintf(o.out, "%s %s FAILED: %v\n", w.name, what, err)
	return result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
}

func emit(out io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// exact holds the deterministic numbers of a pass: they must repeat
// exactly between two runs of the same code on the same seed.
type exact struct {
	iters  int
	virtNs int64
}

// timing is one wall-clock sample: the intervals it occupied and how
// many repetitions of the timed thing they held.
type timing struct {
	timed []window
	reps  int
}

// opSamples are the per-operation measurements of one pass.
type opSamples struct {
	wallS, allocMB    []float64 // whole operations, wall time as it passed
	ops, setups       []timing
	fdNsPerPt         [4][]float64
	attempted, failed int
	exact             exact
}

// quietSeconds turns timings into seconds per repetition on the quiet
// host, as the probe saw it.
func quietSeconds(ts []timing, h *hostProbe, exponent float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = h.quietSeconds(t.timed, exponent) / float64(t.reps)
	}
	return out
}

// measure runs untraced operations of w until limit seconds have
// passed since the first started (at least one), or exactly reps when
// reps > 0, and records each one's wall time and allocation. With a
// host probe running, a group of construct-only passes is timed before
// each one.
func measure(o options, w *workload, limit float64, probe *hostProbe, s *opSamples) {
	var before, after runtime.MemStats
	pts := float64(o.sz.fdGrids*o.sz.fdN*o.sz.fdN*o.sz.fdN) * float64(o.sz.fdTimed)
	start := time.Now()
	for n := 0; ; n++ {
		if o.reps > 0 && n >= o.reps {
			break
		}
		if o.reps == 0 && n > 0 && time.Since(start).Seconds() >= limit {
			break
		}
		if probe != nil && w.setup != nil {
			if err := timeSetup(o, w, s); err != nil {
				s.attempted++
				s.failed++
				fmt.Fprintf(o.out, "%s set-up FAILED: %v\n", w.name, err)
				return
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := w.run(nil, nil)
		runtime.ReadMemStats(&after)
		s.attempted++
		if n > 0 && r.err == nil && (r.iters != s.exact.iters || r.virtNs != s.exact.virtNs) {
			r.err = fmt.Errorf("iterations %d / virtual makespan %d ns differ from the previous operation's %d / %d",
				r.iters, r.virtNs, s.exact.iters, s.exact.virtNs)
		}
		if r.err != nil {
			s.failed++
			fmt.Fprintf(o.out, "%s operation %d FAILED: %v\n", w.name, n, r.err)
			continue
		}
		s.exact = exact{r.iters, r.virtNs}
		s.wallS = append(s.wallS, float64(r.wallNs)/1e9)
		s.ops = append(s.ops, timing{r.timed, 1})
		s.allocMB = append(s.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		if probe != nil {
			fmt.Fprintf(o.out, "# %s operation %d: %.4f s as it passed, %.4f s on the quiet host\n",
				w.name, n, float64(r.wallNs)/1e9, probe.quietSeconds(r.timed, w.hostExponent))
		}
		if r.fd != nil {
			s.setups = append(s.setups, timing{r.fd.setup, 1})
			for a := range r.fd.loopNs {
				s.fdNsPerPt[a] = append(s.fdNsPerPt[a], float64(r.fd.loopNs[a])/pts)
			}
		}
	}
}

// A construct-only pass takes from a tenth of a millisecond to tens of
// milliseconds, and single passes are bimodal: some pay a page fault or
// a collector cycle, most do not. Passes are therefore timed in batches
// long enough to average over those cycles and to hold some twenty
// timings of the host probe. A group of batches runs before every
// operation rather than all at the start, so that the run's median sees
// the same stretch of time the operations do.
const setupBatchSeconds = 0.040

// timeSetup appends per-pass set-up timings to s, one per batch.
func timeSetup(o options, w *workload, s *opSamples) error {
	runtime.GC()
	start := time.Now()
	if err := w.setup(); err != nil {
		return err
	}
	passes := max(1, int(setupBatchSeconds/time.Since(start).Seconds()))
	for b := 0; b < o.sz.setupBatches; b++ {
		start := time.Now()
		for i := 0; i < passes; i++ {
			if err := w.setup(); err != nil {
				return err
			}
		}
		s.setups = append(s.setups, timing{[]window{{start, time.Now()}}, passes})
	}
	return nil
}

// prepare computes w's references once for all of its passes, reporting
// the time apart from set-up: it is the benchmark's own checking cost.
func prepare(o options, w *workload) error {
	if w.prepare == nil {
		return nil
	}
	start := time.Now()
	err := w.prepare()
	fmt.Fprintf(o.out, "%s verify_s %.3f s (reference solutions for the correctness checks; not a metric)\n",
		w.name, time.Since(start).Seconds())
	return err
}

// untracedPass measures the end-to-end metrics with tracing off. Times
// are reported as on the undisturbed host: see hostProbe.
func untracedPass(o options, w *workload) (result, exact) {
	var s opSamples
	probe := startHostProbe()
	measure(o, w, o.seconds, probe, &s)
	probe.stop()

	res := result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	samples := map[string][]float64{"alloc_mb": s.allocMB,
		"wall_s": quietSeconds(s.ops, probe, w.hostExponent), "setup_s": quietSeconds(s.setups, probe, w.hostExponent)}
	for _, def := range endToEnd {
		sum := summarize(samples[def.Name])
		res.Metrics[def.Name] = metricValue{sum.Median, def.Unit}
		fmt.Fprintf(o.out, "%s %s %.6g %s (n=%d q1=%.6g q3=%.6g min=%.6g max=%.6g; bound %.0f%%)\n",
			w.name, def.Name, sum.Median, def.Unit, sum.N, sum.Q1, sum.Q3, sum.Min, sum.Max, 100*def.Bound)
	}
	raw := summarize(s.wallS)
	fmt.Fprintf(o.out, "%s wall_as_passed_s %.6g s (n=%d q1=%.6g q3=%.6g; not a metric: wall time before the host probe's correction)\n",
		w.name, raw.Median, raw.N, raw.Q1, raw.Q3)
	fmt.Fprintf(o.out, "%s iters %d count (exact)\n%s virt_ms %.6f ms (exact)\n%s ops_attempted %d count\n%s ops_failed %d count\n",
		w.name, s.exact.iters, w.name, float64(s.exact.virtNs)/1e6, w.name, s.attempted, w.name, s.failed)
	return res, s.exact
}

// tracedPass produces the per-layer metrics: a short untraced baseline,
// one traced operation, the probes, and the workload's extras.
func tracedPass(o options, w *workload) (result, error) {
	m := metrics{}
	for _, def := range perLayer {
		m[def.Name] = 0
	}
	var s opSamples
	measure(o, w, o.seconds/3, nil, &s)
	if s.failed > 0 {
		return result{Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}, nil
	}

	tr := trace.New(w.ranks, w.ring)
	store := &timedStore{inner: gpaw.NewMemStore()}
	traffic := grid.TrafficPoints()
	r := w.run(tr, store)
	traffic = grid.TrafficPoints() - traffic
	s.attempted++
	if r.err != nil {
		s.failed++
		fmt.Fprintf(o.out, "%s traced operation FAILED: %v\n", w.name, r.err)
	}

	prof := profileMetrics(m, tr, w.clock, r.rankNs)
	fmt.Fprintf(o.out, "%s traced operation: %d events kept on %d ranks (rings of %d), %s clock\n",
		w.name, prof.Events, prof.Ranks, w.ring, prof.Clock)
	m["gpaw.scf_iters"] = float64(r.iters)
	m["mpi.virt_makespan_ms"] = float64(r.virtNs) / 1e6
	m["grid.traffic_passes_per_op"] = float64(traffic) / float64(w.points)
	m["core.msgs_per_op"] = float64(r.stats.MessagesSent)
	m["core.bytes_per_op"] = float64(r.stats.BytesSent)
	m["core.largest_msg_bytes"] = float64(r.stats.LargestMsg)
	m["trace.overhead_frac"] = float64(r.wallNs)/1e9/summarize(s.wallS).Median - 1
	for a := range core.Approaches {
		m["core.fd_ns_per_pt."+approachKeys[a]] = summarize(s.fdNsPerPt[a]).Median
	}
	if gens := store.commits.Load(); gens > 0 {
		m["checkpoint.store_write_ms"] = float64(store.writeNs.Load()) / 1e6
		m["checkpoint.store_read_ms"] = float64(store.readNs.Load()) / 1e6
		m["checkpoint.bytes_per_step"] = float64(store.bytesPut.Load()+store.manifestBytes.Load()) / float64(gens)
		m["checkpoint.shards_per_step"] = float64(store.shardsPut.Load()) / float64(gens)
		shards := int(store.shardsPut.Load() / gens)
		if err := dirStoreProbe(m, shards, int(store.bytesPut.Load()/store.shardsPut.Load())); err != nil {
			return failedPass(o, w, "dirstore probe", err), nil
		}
	}

	calls := o.sz.probeCalls
	kernelProbes(m, w.block, o.sz.probeNs)
	if err := errors.Join(
		mpiProbes(m, w.ranks, calls),
		exchangeProbe(m, w.global, w.procs, w.periodic, calls),
		algebraProbes(m, w.bands, calls),
	); err != nil {
		return failedPass(o, w, "probe", err), nil
	}
	if w.extras != nil {
		if err := w.extras(m, r); err != nil {
			return failedPass(o, w, "extras", err), nil
		}
	}
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, w, tr, prof); err != nil {
			return result{}, err
		}
	}

	res := result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	for _, def := range perLayer {
		res.Metrics[def.Name] = metricValue{m[def.Name], def.Unit}
		fmt.Fprintf(o.out, "%s %s %.6g %s\n", w.name, def.Name, m[def.Name], def.Unit)
	}
	return res, nil
}

// approachKeys are the metric-name forms of core.Approaches, in order.
var approachKeys = [4]string{"flat_original", "flat_optimized", "hybrid_multiple", "hybrid_master_only"}

// writeTrace stores the traced operation's profile and its Chrome
// trace-event timeline, one pair per workload.
func writeTrace(dir string, w *workload, tr *trace.Tracer, prof *trace.Profile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := prof.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, w.name+".profile.json"), raw, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, w.name+".trace.json"))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f, w.clock); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfcheck runs the untraced pass twice on the same inputs and holds
// the second against the first: end-to-end metrics within their bounds,
// deterministic numbers exactly equal.
func selfcheck(o options, w *workload) bool {
	a, ea := untracedPass(o, w)
	b, eb := untracedPass(o, w)
	ok := a.Correct && b.Correct
	for _, def := range endToEnd {
		va, vb := a.Metrics[def.Name].Value, b.Metrics[def.Name].Value
		verdict := "ok"
		if !withinBound(va, vb, def.Bound) {
			verdict, ok = "EXCEEDED", false
		}
		fmt.Fprintf(o.out, "%s selfcheck %s: %.6g -> %.6g %s, %+.2f%% against a bound of %.0f%%: %s\n",
			w.name, def.Name, va, vb, def.Unit, 100*worsening(va, vb), 100*def.Bound, verdict)
	}
	verdict := "ok"
	if ea != eb {
		verdict, ok = "DIFFER", false
	}
	fmt.Fprintf(o.out, "%s selfcheck exact: iters %d -> %d, virt_ns %d -> %d: %s\n",
		w.name, ea.iters, eb.iters, ea.virtNs, eb.virtNs, verdict)
	return ok
}
