package gpaw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/topology"
)

// fuzzShard builds a small valid shard for seeding, carrying hist pairs
// of mixer history.
func fuzzShard(hist int) *shard {
	box := topology.Dims{2, 2, 2}
	sh := &shard{
		Kind: shardKindSCF, Iteration: 3,
		Global: topology.Dims{4, 4, 4}, Off: topology.Coord{0, 0, 0},
		Local: box, Spacing: 0.25, BC: 1,
		States: 1, BandLo: 0, BandHi: 1, Hist: hist,
		Scalars: []float64{-0.5},
	}
	for i := range hist * hist {
		sh.Scalars = append(sh.Scalars, float64(i+1))
	}
	for i := range sh.wantFields() {
		g := grid.NewDims(box, i%3) // encode reads interiors whatever the halo
		g.FillFunc(func(x, y, z int) float64 { return float64(i*10 + 4*x + 2*y + z) })
		sh.Fields = append(sh.Fields, g)
	}
	return sh
}

// fuzzShardBytes is fuzzShard with two mixer pairs, encoded.
func fuzzShardBytes() []byte { return fuzzShard(2).encode(nil) }

// fuzzManifest is the manifest of a one-shard step whose entry names
// fuzzShard(2)'s box and band slice. The entry's checksum is data's own
// trailer, so what readShard holds data to is the header.
func fuzzManifest(data []byte) *manifest {
	sh := fuzzShard(2)
	e := manifestShard{Off: sh.Off, Local: sh.Local, Bands: [2]int{sh.BandLo, sh.BandHi}}
	if len(data) >= 8 {
		e.Sum = fmt.Sprintf("%016x", binary.LittleEndian.Uint64(data[len(data)-8:]))
	}
	return &manifest{Version: shardVersion, Kind: sh.Kind, Step: 1, Ranks: 1, States: sh.States, Hist: sh.Hist,
		Global: sh.Global, Shards: []manifestShard{e}}
}

// entryMismatchShards returns honest encodings that fuzzManifest's entry
// does not describe: the box moved, and the band slice moved.
func entryMismatchShards() map[string][]byte {
	moved := fuzzShard(2)
	moved.Off = topology.Coord{2, 0, 0}
	banded := fuzzShard(2)
	banded.States, banded.BandLo, banded.BandHi = 2, 1, 2
	banded.Scalars = slices.Insert(banded.Scalars, 0, -0.75)
	return map[string][]byte{"another box": moved.encode(nil), "another band slice": banded.encode(nil)}
}

// shardField decodes field i of a parsed shard, x-major over its box.
func shardField(v *shardView, i int) []float64 {
	out := make([]float64, v.Local.Count())
	getRow(out, v.fieldBytes(i))
	return out
}

// shardScalars decodes every scalar of a parsed shard.
func shardScalars(v *shardView) []float64 {
	out := make([]float64, v.wantScalars())
	v.scalars(out, 0)
	return out
}

// oldVersionShard is fuzzShard as an older codec framed it: the same
// bytes with the version word set back and the CRC recomputed. Field 1
// of a version-1 shard is the effective potential, not the Hartree one,
// a version-2 shard carries no mixer history and a version-3 step's
// manifest lists no boxes, so the decoder must refuse all three rather
// than resume from them.
func oldVersionShard(version int) []byte {
	data := fuzzShardBytes()
	binary.LittleEndian.PutUint64(data[8:], uint64(version))
	binary.LittleEndian.PutUint64(data[len(data)-8:], crc64.Checksum(data[:len(data)-8], crcTable))
	return data
}

// misshapenShards returns CRC-valid encodings whose field or scalar
// count disagrees with the band slice and history they declare — the
// shapes RestoreSCF would index out of range.
func misshapenShards() map[string][]byte {
	out := map[string][]byte{}
	for name, bend := range map[string]func(sh *shard){
		"a field short of its band slice": func(sh *shard) { sh.Fields = sh.Fields[:2] },
		"no fields at all":                func(sh *shard) { sh.Fields = nil },
		"a field too many":                func(sh *shard) { sh.Fields = append(sh.Fields, sh.Fields[0]) },
		"band slice reversed":             func(sh *shard) { sh.BandLo, sh.BandHi = 1, 0 },
		"band slice below zero":           func(sh *shard) { sh.BandLo, sh.Fields = -1, append(sh.Fields, sh.Fields[0]) },
		"band slice past the states":      func(sh *shard) { sh.BandHi, sh.Fields = 2, append(sh.Fields, sh.Fields[0]) },
		"a Ritz value short":              func(sh *shard) { sh.Scalars = sh.Scalars[:len(sh.Scalars)-1] },
		"a mixer pair short":              func(sh *shard) { sh.Fields = sh.Fields[:len(sh.Fields)-2] },
		"a Gram row short":                func(sh *shard) { sh.Hist, sh.Fields = 3, append(sh.Fields, sh.Fields[0], sh.Fields[0]) },
		"history past the ring": func(sh *shard) {
			sh.Hist = pulayHistory + 1
			for len(sh.Scalars) < sh.wantScalars() {
				sh.Scalars = append(sh.Scalars, 0)
			}
			for len(sh.Fields) < sh.wantFields() {
				sh.Fields = append(sh.Fields, sh.Fields[0])
			}
		},
	} {
		sh := fuzzShard(2)
		bend(sh)
		out[name] = sh.encode(nil)
	}
	return out
}

// FuzzDecodeShard hardens the checkpoint reader against hostile bytes:
// truncated, bit-flipped or garbage input must come back as a typed
// ErrCheckpointCorrupt — never a panic, and never an offset driven by a
// forged length prefix (the reader bounds every vector length and field
// count by the bytes actually present, so a 1<<61 length can at worst
// reject, not index out of range). The same bytes, read as the one shard
// of a step whose manifest entry names fuzzShard's box and band slice,
// must be refused the same way unless their header matches the entry.
func FuzzDecodeShard(f *testing.F) {
	valid := fuzzShardBytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])  // truncated mid-body
	f.Add(valid[:15])            // below the minimum frame
	f.Add([]byte{})              // empty
	f.Add([]byte("GPCK_v1\x00")) // magic alone
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10 // bit-rot in the body
	f.Add(flipped)
	// Forged giant vector length right after the header: 8*(1<<61)
	// wraps negative, the classic overflow that slips past a
	// multiplied bounds check.
	forged := append([]byte(nil), valid[:8*13]...)
	var huge [8]byte
	binary.LittleEndian.PutUint64(huge[:], 1<<61)
	forged = append(forged, huge[:]...)
	f.Add(forged)
	for _, data := range misshapenShards() {
		f.Add(data)
	}
	f.Add(oldVersionShard(1))
	f.Add(fuzzShard(0).encode(nil)) // a first-iteration shard: no history yet
	f.Add(oldVersionShard(2))
	f.Add(oldVersionShard(3))
	for _, data := range entryMismatchShards() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Size cap keeps minimization of interesting inputs fast; the
		// length-prefix hardening is about forged lengths, not big
		// buffers.
		if len(data) > 1<<16 {
			return
		}
		if v, err := parseShard(data); err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("untyped parse error: %v", err)
			}
		} else {
			// A parsed shard must be internally consistent: the fields
			// and scalars RestoreSCF indexes by band slice and state all
			// present, every field sized to the declared box.
			if v.BandLo < 0 || v.BandLo > v.BandHi || v.BandHi > v.States || v.Hist < 0 || v.Hist > pulayHistory {
				t.Fatalf("parsed band slice [%d, %d) of %d states and %d mixer pairs", v.BandLo, v.BandHi, v.States, v.Hist)
			}
			for i := range 2 + v.BandHi - v.BandLo + 2*v.Hist {
				if n := len(v.fieldBytes(i)); n != 8*v.Local.Count() {
					t.Fatalf("parsed field %d holds %d bytes for box %v", i, n, v.Local)
				}
			}
			shardScalars(v)
		}
		st := NewMemStore()
		if err := st.PutShard(1, 0, data); err != nil {
			t.Fatal(err)
		}
		man := fuzzManifest(data)
		v, err := readShard(st, man, 1, 0)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		if e := man.Shards[0]; v.Off != e.Off || v.Local != e.Local || v.BandLo != e.Bands[0] || v.BandHi != e.Bands[1] ||
			v.States != man.States || v.Hist != man.Hist {
			t.Fatalf("read shard %v at %v, band slice [%d, %d) of %d states, %d pairs under entry %+v",
				v.Local, v.Off, v.BandLo, v.BandHi, v.States, v.Hist, e)
		}
	})
}

func TestDecodeShardRejectsForgedLengths(t *testing.T) {
	// The overflow case pinned as a regular test so it runs in every
	// suite, not only under -fuzz: a forged 1<<61 vector length must be
	// rejected typed, not drive an allocation.
	valid := fuzzShardBytes()
	data := append([]byte(nil), valid[:8*13]...)
	var huge [8]byte
	binary.LittleEndian.PutUint64(huge[:], 1<<61)
	data = append(data, huge[:]...)
	if _, err := parseShard(data); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("parse of forged length = %v, want ErrCheckpointCorrupt", err)
	}
	// Same for a forged field count.
	if _, err := parseShard(valid[:16]); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("parse of truncated shard = %v, want ErrCheckpointCorrupt", err)
	}
	// A well-formed shard of a previous format version names it.
	for _, v := range []int{1, 2, 3} {
		if _, err := parseShard(oldVersionShard(v)); !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Fatalf("parse of a version-%d shard = %v, want ErrCheckpointCorrupt: unsupported version %d", v, err, v)
		}
	}
	// And the honest shards round-trip, history included, into a reused
	// buffer too.
	var buf []byte
	for _, hist := range []int{0, 2, 1} {
		sh := fuzzShard(hist)
		buf = sh.encode(buf)
		got, err := parseShard(buf)
		if err != nil {
			t.Fatalf("parse of a valid shard with %d mixer pairs: %v", hist, err)
		}
		for i, f := range sh.Fields {
			if !slices.Equal(shardField(got, i), f.InteriorSlice()) {
				t.Errorf("%d mixer pairs: field %d did not round-trip", hist, i)
			}
		}
		if !slices.Equal(shardScalars(got), sh.Scalars) || got.Hist != hist {
			t.Errorf("%d mixer pairs: scalars %v (hist %d), want %v", hist, shardScalars(got), got.Hist, sh.Scalars)
		}
	}
	// And for counts that are honest about the bytes but not about the
	// band slice: CRC-valid, well-framed, wrong shape.
	for name, data := range misshapenShards() {
		if _, err := parseShard(data); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("parse of a shard with %s = %v, want ErrCheckpointCorrupt", name, err)
		}
	}
	// And for honest shards their manifest entry does not describe.
	for name, data := range entryMismatchShards() {
		st := NewMemStore()
		if err := st.PutShard(1, 0, data); err != nil {
			t.Fatal(err)
		}
		if _, err := parseShard(data); err != nil {
			t.Fatalf("parse of the shard with %s: %v", name, err)
		}
		if _, err := readShard(st, fuzzManifest(data), 1, 0); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("read of a shard with %s = %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}
