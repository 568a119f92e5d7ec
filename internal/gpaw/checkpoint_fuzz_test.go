package gpaw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"maps"
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
// step: the entry names the shard's box and band slice and its CRC64.
func fuzzStep(hist int) (*manifest, []byte) {
	sc, fs := fuzzShard(hist)
	data := appendShard(nil, sc, fs)
	return &manifest{Step: 3, States: 1, Hist: hist, Global: topology.Dims{4, 4, 4}, Spacing: 0.25, BC: Dirichlet,
		Shards: []manifestShard{{Local: topology.Dims{2, 2, 2}, Bands: [2]int{0, 1}, Sum: crc64.Checksum(data, crcTable)}}}, data
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

// misshapenManifests returns CRC-valid manifests a decoder must refuse:
// counts that do not fit the grid, the states or the mixer ring, and
// framings with no whole entry.
func misshapenManifests() map[string][]byte {
	out := map[string][]byte{}
	for name, bend := range map[string]func(man *manifest){
		"band slice reversed":        func(man *manifest) { man.Shards[0].Bands = [2]int{1, 0} },
		"band slice below zero":      func(man *manifest) { man.Shards[0].Bands = [2]int{-1, 1} },
		"band slice past the states": func(man *manifest) { man.Shards[0].Bands = [2]int{0, 2} },
		"history past the ring":      func(man *manifest) { man.Hist = pulayHistory + 1 },
		"negative history":           func(man *manifest) { man.Hist = -1 },
		"no states":                  func(man *manifest) { man.States, man.Shards[0].Bands = 0, [2]int{0, 0} },
		"a box past the grid":        func(man *manifest) { man.Shards[0].Off = topology.Coord{3, 0, 0} },
		"a box below the grid":       func(man *manifest) { man.Shards[0].Off = topology.Coord{0, -1, 0} },
		"an empty box":               func(man *manifest) { man.Shards[0].Local = topology.Dims{2, 0, 2} },
		"a grid of 1<<61 points":     func(man *manifest) { man.Global = topology.Dims{1 << 61, 1, 1} },
		"no entries":                 func(man *manifest) { man.Shards = nil },
	} {
		man, _ := fuzzStep(2)
		bend(man)
		out[name] = man.encode()
	}
	raw := fuzzManifestBytes()
	short := slices.Clone(raw[:len(raw)-16])
	out["an entry a word short"] = binary.LittleEndian.AppendUint64(short, crc64.Checksum(short, crcTable))
	return out
}

// misshapenShards returns shards whose byte count disagrees with what
// fuzzStep(2)'s manifest entry calls for — the shapes RestoreSCF would
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
// reads it back under that step's manifest, its entry's CRC64 set to
// data's own, so what readShard holds the bytes to is their count.
func readFuzzShard(t *testing.T, data []byte) (*manifest, *shardView, error) {
	t.Helper()
	man, _ := fuzzStep(2)
	man.Shards[0].Sum = crc64.Checksum(data, crcTable)
	st := NewMemStore()
	if err := st.PutShard(man.Step, 0, data); err != nil {
		t.Fatal(err)
	}
	v, err := readShard(st, man, man.Step, 0)
	return man, v, err
}

// shardField decodes field i of a read shard, x-major over its box.
func shardField(v *shardView, i int) []float64 {
	out := make([]float64, v.Local.Count())
	getRow(out, v.fieldBytes(i))
	return out
}

// FuzzDecodeShard hardens the checkpoint readers against hostile bytes.
// Read as a manifest, truncated, bit-flipped or garbage input must come
// back as a typed ErrCheckpointCorrupt — never a panic — and a decoded
// manifest must hold every entry inside its grid and states. Read as
// rank 0's shard of an honest one-shard step, the same bytes must be
// refused the same way unless they hold exactly the scalars and fields
// the entry calls for, and every slice of a view read must lie inside
// them. No forged count can drive an offset: the readers bound each by
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
			if man.States < 1 || man.Hist < 0 || man.Hist > pulayHistory || len(man.Shards) == 0 {
				t.Fatalf("decoded %d states and %d mixer pairs in %d entries", man.States, man.Hist, len(man.Shards))
			}
			for r, e := range man.Shards {
				for d := range 3 {
					if e.Off[d] < 0 || e.Local[d] < 1 || e.Off[d]+e.Local[d] > man.Global[d] {
						t.Fatalf("decoded entry %d: box %v at %v in %v", r, e.Local, e.Off, man.Global)
					}
				}
				if e.Bands[0] < 0 || e.Bands[0] > e.Bands[1] || e.Bands[1] > man.States {
					t.Fatalf("decoded entry %d: band slice %v of %d states", r, e.Bands, man.States)
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
		nf, n := 2+v.Bands[1]-v.Bands[0]+2*man.Hist, v.Local.Count()
		if len(data) != 8*(man.States+man.Hist*man.Hist+nf*n) {
			t.Fatalf("read a shard of %d bytes for %d scalars and %d fields of box %v", len(data), v.ns, nf, v.Local)
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
	// count by the shard's byte count, as a box extent or the grid by the
	// manifest.
	if _, _, err := readFuzzShard(t, valid); err != nil {
		t.Fatalf("read of the honest shard: %v", err)
	}
	forged := map[string][]byte{"state count": reframed(raw, 3, 1<<61), "grid": reframed(raw, 5, 1<<61),
		"box extent": reframed(raw, manifestHeadWords+3, 1<<61), "band slice": reframed(raw, manifestHeadWords+7, 1<<61)}
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
	// A manifest of an older version, JSON as versions 1-4 wrote it or
	// framed as version 5 is with another version word, is refused; the
	// framed one names its version.
	for v := 1; v <= 4; v++ {
		if _, err := decodeManifest(jsonManifest(v)); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("a JSON version-%d manifest: %v, want ErrCheckpointCorrupt", v, err)
		}
		if _, err := decodeManifest(reframed(raw, 1, uint64(v))); !errors.Is(err, ErrCheckpointCorrupt) ||
			!strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Errorf("a version-%d manifest: %v, want ErrCheckpointCorrupt: unsupported version %d", v, err, v)
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
	two := &manifest{Step: 3, States: 1, Global: topology.Dims{4, 2, 2}}
	st = NewMemStore()
	for r := range 2 {
		sc, fs := fuzzShard(0)
		fs[0].Set(0, 0, 0, float64(r))
		data := appendShard(nil, sc, fs)
		two.Shards = append(two.Shards, manifestShard{Off: topology.Coord{2 * r, 0, 0}, Local: topology.Dims{2, 2, 2},
			Bands: [2]int{0, 1}, Sum: crc64.Checksum(data, crcTable)})
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
		man.Shards[0].Sum = crc64.Checksum(buf, crcTable)
		got, err := decodeManifest(man.encode())
		if err != nil {
			t.Fatalf("decode of a valid manifest with %d mixer pairs: %v", hist, err)
		}
		if got.Step != man.Step || got.States != man.States || got.Hist != hist || got.Global != man.Global ||
			got.Spacing != man.Spacing || got.BC != man.BC || !slices.Equal(got.Shards, man.Shards) {
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
