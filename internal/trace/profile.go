package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Clock selects which timestamp an export reads: the wall clock
// (always populated) or the net model's deterministic virtual clock
// (zero when no model is armed).
type Clock int

const (
	Wall Clock = iota
	Virtual
)

func (c Clock) String() string {
	if c == Virtual {
		return "virtual"
	}
	return "wall"
}

// pick returns an event's (start, dur) under the clock.
func (c Clock) pick(e *Event) (int64, int64) {
	if c == Virtual {
		return e.VStart, e.VDur
	}
	return e.Start, e.Dur
}

// PhaseStat aggregates every event sharing a (name, kind) across all
// ranks. SelfNs excludes time covered by nested child spans on the
// same rank, so phases sum without double counting.
type PhaseStat struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
	SelfNs  int64  `json:"self_ns"`
	Bytes   int64  `json:"bytes"`
}

// Profile is the aggregated per-phase view of a trace plus the
// solver-level overlap accounting — the expvar-style snapshot a
// service can serialize with JSON and a human can render with Table.
// Every number in it is read off the recorded events under one clock.
type Profile struct {
	Clock   string `json:"clock"`
	Ranks   int    `json:"ranks"`
	Events  int64  `json:"events"`
	Dropped int64  `json:"dropped"`
	// CommNs and ComputeNs are self-time sums: communication spans
	// (send/wait/collective/exchange) versus compute regions.
	CommNs    int64 `json:"comm_ns"`
	ComputeNs int64 `json:"compute_ns"`
	// Wait accounting of the halo-exchange engine: visible is the time
	// blocked in halo.wait spans; hidden is, per exchange, the time from
	// the end of its halo.post to the start of its halo.wait — in flight
	// while the rank computed. A wait with no post (the serialized
	// exchange) hid nothing.
	HiddenWaitNs  int64 `json:"hidden_wait_ns"`
	VisibleWaitNs int64 `json:"visible_wait_ns"`
	// Split-phase compute: the total time of the compute.interior and
	// compute.shell regions.
	InteriorNs int64 `json:"interior_ns"`
	ShellNs    int64 `json:"shell_ns"`
	// OverlapEfficiency = hidden / (hidden + visible) wait: the
	// fraction of halo latency the split-phase solvers hid behind
	// interior compute. Zero when nothing was in flight.
	OverlapEfficiency float64     `json:"overlap_efficiency"`
	Phases            []PhaseStat `json:"phases"`
}

// selfTimes returns, for one rank's events (in recording order), each
// event's self time under the clock: its duration minus the durations
// of events strictly nested inside it. Nesting is reconstructed by a
// stack sweep over intervals; ties (identical start and end, common
// under a virtual clock that did not advance) are broken by recording
// order — children complete before their parents, so the
// later-recorded event is the parent.
func selfTimes(events []Event, clock Clock) []int64 {
	type iv struct {
		idx        int
		start, end int64
	}
	ivs := make([]iv, 0, len(events))
	for i := range events {
		if events[i].Kind == KindMark {
			continue
		}
		s, d := clock.pick(&events[i])
		if d < 0 {
			d = 0
		}
		ivs = append(ivs, iv{idx: i, start: s, end: s + d})
	}
	sort.SliceStable(ivs, func(a, b int) bool {
		if ivs[a].start != ivs[b].start {
			return ivs[a].start < ivs[b].start
		}
		if ivs[a].end != ivs[b].end {
			return ivs[a].end > ivs[b].end
		}
		return ivs[a].idx > ivs[b].idx // later-recorded = parent first
	})
	self := make([]int64, len(events))
	var stack []iv
	for _, e := range ivs {
		for len(stack) > 0 && stack[len(stack)-1].end <= e.start {
			stack = stack[:len(stack)-1]
		}
		self[e.idx] = e.end - e.start
		if len(stack) > 0 && e.end <= stack[len(stack)-1].end {
			// Strictly nested in the enclosing open span: its time is
			// not the parent's self time.
			self[stack[len(stack)-1].idx] -= e.end - e.start
		}
		stack = append(stack, e)
	}
	return self
}

// splitPhase folds one of a rank's events, at (start, dur) under the
// profile's clock, into the split-phase accounting. posted holds, per
// tag, the end of the rank's halo.post still waiting for its
// halo.wait. Events arrive in completion order, so a post is always
// seen before its wait, and the engine keeps at most one exchange per
// tag in flight on a rank (double-buffered batches and hybrid-multiple
// workers use disjoint tags). A wait whose post the ring dropped counts
// as visible only.
func (p *Profile) splitPhase(e *Event, start, dur int64, posted map[int]int64) {
	switch e.Name {
	case HaloPost:
		posted[e.Tag] = start + dur
	case HaloWait:
		p.VisibleWaitNs += dur
		if end, ok := posted[e.Tag]; ok {
			p.HiddenWaitNs += max(start-end, 0)
			delete(posted, e.Tag)
		}
	case ComputeInterior:
		p.InteriorNs += dur
	case ComputeShell:
		p.ShellNs += dur
	}
}

// Profile aggregates the trace under the given clock.
func (t *Tracer) Profile(clock Clock) *Profile {
	p := &Profile{Clock: clock.String(), Ranks: len(t.ranks)}
	byPhase := map[[2]string]*PhaseStat{}
	for r := range t.ranks {
		events := t.RankEvents(r)
		self := selfTimes(events, clock)
		posted := map[int]int64{}
		p.Events += int64(len(events))
		for i := range events {
			e := &events[i]
			key := [2]string{e.Name, e.Kind.String()}
			ps := byPhase[key]
			if ps == nil {
				ps = &PhaseStat{Name: e.Name, Kind: e.Kind.String()}
				byPhase[key] = ps
			}
			s, d := clock.pick(e)
			if d < 0 {
				d = 0
			}
			ps.Count++
			ps.TotalNs += d
			if d > ps.MaxNs {
				ps.MaxNs = d
			}
			ps.SelfNs += self[i]
			ps.Bytes += e.Bytes
			if e.Kind != KindMark {
				if e.Kind.Comm() {
					p.CommNs += self[i]
				} else {
					p.ComputeNs += self[i]
				}
			}
			p.splitPhase(e, s, d, posted)
		}
	}
	p.Dropped = t.Dropped()
	if hv := p.HiddenWaitNs + p.VisibleWaitNs; hv > 0 {
		p.OverlapEfficiency = float64(p.HiddenWaitNs) / float64(hv)
	}
	for _, ps := range byPhase {
		p.Phases = append(p.Phases, *ps)
	}
	sort.Slice(p.Phases, func(a, b int) bool {
		if p.Phases[a].TotalNs != p.Phases[b].TotalNs {
			return p.Phases[a].TotalNs > p.Phases[b].TotalNs
		}
		return p.Phases[a].Name < p.Phases[b].Name
	})
	return p
}

// JSON serializes the profile as an indented expvar-style snapshot.
func (p *Profile) JSON() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

func ms(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	case b > 0:
		return fmt.Sprintf("%dB", b)
	}
	return "-"
}

// Table renders the profile as an aligned text table, phases sorted by
// total time, with the comm/compute split and overlap efficiency
// summarized underneath.
func (p *Profile) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-10s %7s %12s %10s %12s %10s\n",
		"phase", "kind", "count", "total(ms)", "max(ms)", "self(ms)", "bytes")
	for _, ps := range p.Phases {
		fmt.Fprintf(&b, "%-28s %-10s %7d %12s %10s %12s %10s\n",
			ps.Name, ps.Kind, ps.Count, ms(ps.TotalNs), ms(ps.MaxNs), ms(ps.SelfNs), fmtBytes(ps.Bytes))
	}
	if tot := p.CommNs + p.ComputeNs; tot > 0 {
		fmt.Fprintf(&b, "comm %.1f%% / compute %.1f%% of %s ms traced self time (%s clock)\n",
			100*float64(p.CommNs)/float64(tot), 100*float64(p.ComputeNs)/float64(tot),
			ms(tot), p.Clock)
	}
	if hv := p.HiddenWaitNs + p.VisibleWaitNs; hv > 0 {
		fmt.Fprintf(&b, "overlap efficiency %.3f (hidden %s ms / total wait %s ms)\n",
			p.OverlapEfficiency, ms(p.HiddenWaitNs), ms(hv))
	}
	if p.InteriorNs+p.ShellNs > 0 {
		fmt.Fprintf(&b, "split-phase compute: interior %s ms, shell %s ms\n",
			ms(p.InteriorNs), ms(p.ShellNs))
	}
	fmt.Fprintf(&b, "%d events on %d ranks (%d dropped by ring overflow)\n",
		p.Events, p.Ranks, p.Dropped)
	return b.String()
}
