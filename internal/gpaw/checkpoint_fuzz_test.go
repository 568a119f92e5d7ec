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
func fuzzShardBytes() []byte { return fuzzShard(2).encode() }

// oldVersionShard is fuzzShard as an older codec framed it: the same
// bytes with the version word set back and the CRC recomputed. Field 1
// of a version-1 shard is the effective potential, not the Hartree one,
// and a version-2 shard carries no mixer history, so the decoder must
// refuse both rather than resume from them.
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
		out[name] = sh.encode()
	}
	return out
}

// FuzzDecodeShard hardens the checkpoint codec against hostile bytes:
// truncated, bit-flipped or garbage input must come back as a typed
// ErrCheckpointCorrupt — never a panic, and never an allocation driven
// by a forged length prefix (the codec bounds every vector length and
// field count by the bytes actually present, so a 1<<61 length can at
// worst reject, not OOM).
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
	f.Add(fuzzShard(0).encode()) // a first-iteration shard: no history yet
	f.Add(oldVersionShard(2))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Size cap keeps minimization of interesting inputs fast; the
		// length-prefix hardening is about forged lengths, not big
		// buffers.
		if len(data) > 1<<16 {
			return
		}
		sh, err := decodeShard(data)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode must be internally consistent: every
		// field sized to the declared box, and the fields and scalars
		// RestoreSCF indexes by band slice and state all present.
		for i, fl := range sh.Fields {
			if fl.Dims() != sh.Local {
				t.Fatalf("decoded field %d covers %v for box %v", i, fl.Dims(), sh.Local)
			}
		}
		if sh.BandLo < 0 || sh.BandLo > sh.BandHi || sh.BandHi > sh.States || sh.Hist < 0 || sh.Hist > pulayHistory ||
			len(sh.Fields) != 2+sh.BandHi-sh.BandLo+2*sh.Hist || len(sh.Scalars) != sh.States+sh.Hist*sh.Hist {
			t.Fatalf("decoded %d fields, %d scalars for band slice [%d, %d) of %d states and %d mixer pairs",
				len(sh.Fields), len(sh.Scalars), sh.BandLo, sh.BandHi, sh.States, sh.Hist)
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
	if _, err := decodeShard(data); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("decode of forged length = %v, want ErrCheckpointCorrupt", err)
	}
	// Same for a forged field count.
	if _, err := decodeShard(valid[:16]); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("decode of truncated shard = %v, want ErrCheckpointCorrupt", err)
	}
	// A well-formed shard of a previous format version names it.
	for _, v := range []int{1, 2} {
		if _, err := decodeShard(oldVersionShard(v)); !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Fatalf("decode of a version-%d shard = %v, want ErrCheckpointCorrupt: unsupported version %d", v, err, v)
		}
	}
	// And the honest shards round-trip, history included.
	for _, hist := range []int{0, 2} {
		sh := fuzzShard(hist)
		got, err := decodeShard(sh.encode())
		if err != nil {
			t.Fatalf("decode of a valid shard with %d mixer pairs: %v", hist, err)
		}
		for i, f := range got.Fields {
			if !slices.Equal(f.Data(), sh.Fields[i].InteriorSlice()) {
				t.Errorf("%d mixer pairs: field %d did not round-trip", hist, i)
			}
		}
		if !slices.Equal(got.Scalars, sh.Scalars) || got.Hist != hist {
			t.Errorf("%d mixer pairs: scalars %v (hist %d), want %v", hist, got.Scalars, got.Hist, sh.Scalars)
		}
	}
	// And for counts that are honest about the bytes but not about the
	// band slice: CRC-valid, well-framed, wrong shape.
	for name, data := range misshapenShards() {
		if _, err := decodeShard(data); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("decode of a shard with %s = %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}
