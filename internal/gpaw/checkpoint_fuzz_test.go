package gpaw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/topology"
)

// fuzzShard builds the scalars and fields of a small valid shard: one
// state over a 2x2x2 box, carrying hist pairs of mixer history.
func fuzzShard(hist int) ([]float64, []*grid.Grid) {
	box := topology.Dims{2, 2, 2}
	scalars := []float64{-0.5}
	for i := range hist * hist {
		scalars = append(scalars, float64(i+1))
	}
	var fields []*grid.Grid
	for i := range 3 + 2*hist {
		g := grid.NewDims(box, i%3) // appendShard reads interiors whatever the halo
		g.FillFunc(func(x, y, z int) float64 { return float64(i*10 + 4*x + 2*y + z) })
		fields = append(fields, g)
	}
	return scalars, fields
}

// fuzzStep is fuzzShard encoded, with the manifest of its one-shard
// step: one writer over the shard's 2x2x2 grid, and the shard's CRC64.
func fuzzStep(hist int) (*manifest, []byte) {
	sc, fs := fuzzShard(hist)
	data := appendShard(nil, sc, fs)
	return &manifest{Step: 3, States: 1, Hist: hist, Spacing: 0.25, BC: Dirichlet,
		Layout: grid.MustDecomp(topology.Dims{2, 2, 2}, topology.Dims{1, 1, 1}, 0), Bands: 1,
		Sums: []uint64{crc64.Checksum(data, crcTable)}}, data
}

// fuzzManifestBytes is fuzzStep(2)'s manifest, encoded.
func fuzzManifestBytes() []byte {
	man, _ := fuzzStep(2)
	return man.encode()
}

// reframed returns an encoded manifest with word i set to v and the
// CRC64 trailer recomputed: the shape a forger, not bit-rot, leaves.
func reframed(raw []byte, i int, v uint64) []byte {
	raw = slices.Clone(raw)
	binary.LittleEndian.PutUint64(raw[8*i:], v)
	binary.LittleEndian.PutUint64(raw[len(raw)-8:], crc64.Checksum(raw[:len(raw)-8], crcTable))
	return raw
}

// jsonManifest is a step's manifest as versions 1-4 wrote it.
func jsonManifest(version int) []byte {
	return fmt.Appendf(nil, `{"version":%d,"kind":1,"step":3,"ranks":1,"states":1,"global":[4,4,4],`+
		`"shards":[{"off":[0,0,0],"local":[2,2,2],"bands":[0,1],"sum":"0123456789abcdef"}]}`, version)
}

// v5Manifest is fuzzStep(2)'s manifest as version 5 wrote it: the head
// without the writers' layout, then the shard's box, band slice and
// CRC64.
func v5Manifest() []byte {
	man, _ := fuzzStep(2)
	var buf []byte
	for _, w := range []uint64{manifestMagic, 5, 3, 1, 2, 2, 2, 2, math.Float64bits(0.25), uint64(Dirichlet),
		0, 0, 0, 2, 2, 2, 0, 1, man.Sums[0]} {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
}

// misshapenManifests returns CRC-valid manifests a decoder must refuse:
// counts that do not fit the grid, the states or the mixer ring, process
// grids the grid cannot be split over, checksums that are not one per
// writing rank, and the version before this one.
func misshapenManifests() map[string][]byte {
	out := map[string][]byte{}
	// layout sets a layout NewDecomp may refuse, which encode writes as is.
	layout := func(man *manifest, global, procs topology.Dims) {
		man.Layout = &grid.Decomp{Global: global, Procs: procs}
	}
	for name, bend := range map[string]func(man *manifest){
		"history past the ring":          func(man *manifest) { man.Hist = pulayHistory + 1 },
		"negative history":               func(man *manifest) { man.Hist = -1 },
		"no states":                      func(man *manifest) { man.States = 0 },
		"a grid of 1<<61 points":         func(man *manifest) { layout(man, topology.Dims{1 << 61, 1, 1}, topology.Dims{1, 1, 1}) },
		"a process grid dimension of 0":  func(man *manifest) { layout(man, topology.Dims{2, 2, 2}, topology.Dims{1, 0, 1}) },
		"a process grid past the grid":   func(man *manifest) { layout(man, topology.Dims{2, 2, 2}, topology.Dims{3, 1, 1}) },
		"no band groups":                 func(man *manifest) { man.Bands = 0 },
		"two band groups over one shard": func(man *manifest) { man.Bands = 2 },
		"one checksum too few":           func(man *manifest) { man.Sums = nil },
		"one checksum too many":          func(man *manifest) { man.Sums = append(man.Sums, man.Sums[0]) },
	} {
		man, _ := fuzzStep(2)
		bend(man)
		out[name] = man.encode()
	}
	out["version 5"] = v5Manifest()
	raw := fuzzManifestBytes()
	short := slices.Clone(raw[:len(raw)-12])
	out["a checksum half a word short"] = binary.LittleEndian.AppendUint64(short, crc64.Checksum(short, crcTable))
	return out
}

// misshapenShards returns shards whose byte count disagrees with what
// fuzzStep(2)'s manifest calls for — the shapes RestoreSCF would
// index out of range — each under the manifest that records its CRC64.
func misshapenShards() map[string][]byte {
	out := map[string][]byte{}
	for name, bend := range map[string]func(sc []float64, fs []*grid.Grid) ([]float64, []*grid.Grid){
		"a field short":      func(sc []float64, fs []*grid.Grid) ([]float64, []*grid.Grid) { return sc, fs[:len(fs)-1] },
		"no fields at all":   func(sc []float64, fs []*grid.Grid) ([]float64, []*grid.Grid) { return sc, nil },
		"a field too many":   func(sc []float64, fs []*grid.Grid) ([]float64, []*grid.Grid) { return sc, append(fs, fs[0]) },
		"a Ritz value short": func(sc []float64, fs []*grid.Grid) ([]float64, []*grid.Grid) { return sc[1:], fs },
		"a mixer pair short": func(sc []float64, fs []*grid.Grid) ([]float64, []*grid.Grid) { return sc, fs[:len(fs)-2] },
		"a Gram row short":   func(sc []float64, fs []*grid.Grid) ([]float64, []*grid.Grid) { return sc[:len(sc)-2], fs },
	} {
		sc, fs := bend(fuzzShard(2))
		out[name] = appendShard(nil, sc, fs)
	}
	_, data := fuzzStep(2)
	out["padded by a word"] = append(slices.Clone(data), make([]byte, 8)...)
	out["truncated by a byte"] = data[:len(data)-1]
	return out
}

// readFuzzShard stores data as rank 0's shard of fuzzStep(2)'s step and
// reads it back under that step's manifest, its CRC64 set to data's own,
// so what readShard holds the bytes to is their count.
func readFuzzShard(t *testing.T, data []byte) (*manifest, *shardView, error) {
	t.Helper()
	man, _ := fuzzStep(2)
	man.Sums[0] = crc64.Checksum(data, crcTable)
	st := NewMemStore()
	if err := st.PutShard(man.Step, 0, data); err != nil {
		t.Fatal(err)
	}
	v, err := readShard(st, man, man.Step, 0)
	return man, v, err
}

// shardField decodes field i of a read shard, x-major over its box.
func shardField(v *shardView, i int) []float64 {
	out := make([]float64, v.local.Count())
	getRow(out, v.fieldBytes(i))
	return out
}

// FuzzDecodeShard hardens the checkpoint readers against hostile bytes.
// Read as a manifest, truncated, bit-flipped or garbage input must come
// back as a typed ErrCheckpointCorrupt — never a panic — and a decoded
// manifest must hold one checksum per writing rank and place every shard
// inside its grid and states. Read as rank 0's shard of an honest
// one-shard step, the same bytes must be refused the same way unless
// they hold exactly the scalars and fields the manifest calls for, and
// every slice of a view read must lie inside them. No forged count can drive an offset: the readers bound each by
// division against the bytes present, so a 1<<61 count can at worst
// reject, not index out of range.
func FuzzDecodeShard(f *testing.F) {
	_, valid := fuzzStep(2)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-body
	f.Add(valid[:15])
	f.Add([]byte{})
	f.Add([]byte("GPCK_v1\x00")) // the magic alone
	flipped := slices.Clone(valid)
	flipped[len(flipped)/3] ^= 0x10 // bit-rot in the body
	f.Add(flipped)
	// A forged state count: 8*(1<<61) wraps negative, the classic
	// overflow that slips past a multiplied bounds check.
	f.Add(reframed(fuzzManifestBytes(), 3, 1<<61))
	// In name order, so each seed#N names the same bytes on every run.
	for _, seeds := range []map[string][]byte{misshapenManifests(), misshapenShards()} {
		for _, name := range slices.Sorted(maps.Keys(seeds)) {
			f.Add(seeds[name])
		}
	}
	for v := 1; v <= 4; v++ {
		f.Add(jsonManifest(v))
		f.Add(reframed(fuzzManifestBytes(), 1, uint64(v)))
	}
	_, first := fuzzStep(0) // a first-iteration shard: no history yet
	f.Add(first)
	man := fuzzManifestBytes()
	f.Add(man)
	bad := slices.Clone(man)
	bad[len(bad)/2] ^= 0x04
	f.Add(bad)
	f.Add(man[:len(man)-8])
	f.Fuzz(func(t *testing.T, data []byte) {
		// Size cap keeps minimization of interesting inputs fast; the
		// hardening is about forged counts, not big buffers.
		if len(data) > 1<<16 {
			return
		}
		if man, err := decodeManifest(data); err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("untyped manifest error: %v", err)
			}
		} else {
			if man.States < 1 || man.Hist < 0 || man.Hist > pulayHistory || man.Bands < 1 ||
				len(man.Sums) != man.Bands*man.Layout.NumProcs() {
				t.Fatalf("decoded %d states, %d mixer pairs and %d checksums for %d band groups over %v",
					man.States, man.Hist, len(man.Sums), man.Bands, man.Layout.Procs)
			}
			for r := range man.Sums {
				off, local, lo, hi := man.shard(r)
				for d := range 3 {
					if off[d] < 0 || local[d] < 1 || off[d]+local[d] > man.Layout.Global[d] {
						t.Fatalf("decoded shard %d: box %v at %v in %v", r, local, off, man.Layout.Global)
					}
				}
				if lo < 0 || lo > hi || hi > man.States {
					t.Fatalf("decoded shard %d: band slice [%d, %d) of %d states", r, lo, hi, man.States)
				}
			}
		}
		man, v, err := readFuzzShard(t, data)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		nf, n := 2+v.hi-v.lo+2*man.Hist, v.local.Count()
		if len(data) != 8*(man.States+man.Hist*man.Hist+nf*n) {
			t.Fatalf("read a shard of %d bytes for %d scalars and %d fields of box %v", len(data), v.ns, nf, v.local)
		}
		scalars := make([]float64, v.ns)
		v.scalars(scalars, 0)
		for i := range nf {
			shardField(v, i)
		}
	})
}

// TestDecodeShardRejectsForgedLengths pins the fuzz target's refusals
// as a regular test, so they run in every suite, not only under -fuzz.
func TestDecodeShardRejectsForgedLengths(t *testing.T) {
	man, valid := fuzzStep(2)
	raw := man.encode()
	// A forged 1<<61 count is refused typed, not used: as the state
	// count by the shard's byte count, as the grid, a process grid
	// extent or the band groups by the manifest.
	if _, _, err := readFuzzShard(t, valid); err != nil {
		t.Fatalf("read of the honest shard: %v", err)
	}
	forged := map[string][]byte{"state count": reframed(raw, 3, 1<<61), "grid": reframed(raw, 5, 1<<61),
		"process grid extent": reframed(raw, 10, 1<<61), "band group count": reframed(raw, 13, 1<<61)}
	for what, enc := range forged {
		m, err := decodeManifest(enc)
		if err == nil {
			st := NewMemStore()
			if err := st.PutShard(m.Step, 0, valid); err != nil {
				t.Fatal(err)
			}
			_, err = readShard(st, m, m.Step, 0)
		}
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("a forged 1<<61 %s: %v, want ErrCheckpointCorrupt", what, err)
		}
	}
	// A flipped bit anywhere in the manifest or in the shard is refused.
	for i := range 8 * len(raw) {
		bad := slices.Clone(raw)
		bad[i/8] ^= 1 << (i % 8)
		if _, err := decodeManifest(bad); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("manifest with bit %d flipped: %v, want ErrCheckpointCorrupt", i, err)
		}
	}
	st := NewMemStore()
	for i := range 8 * len(valid) {
		bad := slices.Clone(valid)
		bad[i/8] ^= 1 << (i % 8)
		if err := st.PutShard(man.Step, 0, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := readShard(st, man, man.Step, 0); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("shard with bit %d flipped: %v, want ErrCheckpointCorrupt", i, err)
		}
	}
	// A manifest of an older version, JSON as versions 1-4 wrote it,
	// framed as version 5 wrote it, or framed as version 6 is with another
	// version word, is refused; a framed one names its version.
	if _, err := decodeManifest(v5Manifest()); !errors.Is(err, ErrCheckpointCorrupt) ||
		!strings.Contains(err.Error(), "unsupported version 5") {
		t.Errorf("a version-5 manifest: %v, want ErrCheckpointCorrupt: unsupported version 5", err)
	}
	for v := 1; v <= 5; v++ {
		if _, err := decodeManifest(reframed(raw, 1, uint64(v))); !errors.Is(err, ErrCheckpointCorrupt) ||
			!strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Errorf("a version-%d manifest: %v, want ErrCheckpointCorrupt: unsupported version %d", v, err, v)
		}
		if _, err := decodeManifest(jsonManifest(v)); v < 5 && !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("a JSON version-%d manifest: %v, want ErrCheckpointCorrupt", v, err)
		}
	}
	// CRC-valid manifests whose counts do not fit are refused.
	for name, enc := range misshapenManifests() {
		if _, err := decodeManifest(enc); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("a manifest with %s: %v, want ErrCheckpointCorrupt", name, err)
		}
	}
	// Shards whose byte count is not the entry's, CRC64 regardless, are
	// refused.
	for name, data := range misshapenShards() {
		if _, _, err := readFuzzShard(t, data); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("a shard with %s: %v, want ErrCheckpointCorrupt", name, err)
		}
	}
	// An honest shard stored under another rank's key is refused by its
	// CRC64, though its byte count fits.
	two := &manifest{Step: 3, States: 1, Layout: grid.MustDecomp(topology.Dims{4, 2, 2}, topology.Dims{2, 1, 1}, 0), Bands: 1}
	st = NewMemStore()
	for r := range 2 {
		sc, fs := fuzzShard(0)
		fs[0].Set(0, 0, 0, float64(r))
		data := appendShard(nil, sc, fs)
		two.Sums = append(two.Sums, crc64.Checksum(data, crcTable))
		if err := st.PutShard(3, 1-r, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readShard(st, two, 3, 0); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("rank 1's shard under rank 0's key: %v, want ErrCheckpointCorrupt", err)
	}
	// And the honest steps round-trip, history included, into a reused
	// buffer too.
	var buf []byte
	for _, hist := range []int{0, 2, 1} {
		man, _ := fuzzStep(hist)
		sc, fs := fuzzShard(hist)
		buf = appendShard(buf[:0], sc, fs)
		man.Sums[0] = crc64.Checksum(buf, crcTable)
		got, err := decodeManifest(man.encode())
		if err != nil {
			t.Fatalf("decode of a valid manifest with %d mixer pairs: %v", hist, err)
		}
		if got.Step != man.Step || got.States != man.States || got.Hist != hist || got.Layout.Global != man.Layout.Global ||
			got.Layout.Procs != man.Layout.Procs ||
			got.Spacing != man.Spacing || got.BC != man.BC || got.Bands != man.Bands || !slices.Equal(got.Sums, man.Sums) {
			t.Errorf("%d mixer pairs: manifest %+v, want %+v", hist, got, man)
		}
		st := NewMemStore()
		if err := st.PutShard(man.Step, 0, buf); err != nil {
			t.Fatal(err)
		}
		v, err := readShard(st, got, man.Step, 0)
		if err != nil {
			t.Fatalf("read of a valid shard with %d mixer pairs: %v", hist, err)
		}
		for i, f := range fs {
			if !slices.Equal(shardField(v, i), f.InteriorSlice()) {
				t.Errorf("%d mixer pairs: field %d did not round-trip", hist, i)
			}
		}
		scalars := make([]float64, len(sc))
		v.scalars(scalars, 0)
		if !slices.Equal(scalars, sc) {
			t.Errorf("%d mixer pairs: scalars %v, want %v", hist, scalars, sc)
		}
	}
}
