package gpaw

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"strings"
	"testing"

	"repro/internal/topology"
)

// fuzzShard builds a small valid shard for seeding.
func fuzzShard() *shard {
	sh := &shard{
		Kind: shardKindSCF, Iteration: 3,
		Global: topology.Dims{4, 4, 4}, Off: topology.Coord{0, 0, 0},
		Local: topology.Dims{2, 2, 2}, Spacing: 0.25, BC: 1,
		States: 1, BandLo: 0, BandHi: 1,
		Scalars: []float64{-0.5},
		Fields:  [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)},
	}
	for i := range sh.Fields {
		for j := range sh.Fields[i] {
			sh.Fields[i][j] = float64(i*10 + j)
		}
	}
	return sh
}

// fuzzShardBytes is fuzzShard, encoded.
func fuzzShardBytes() []byte { return fuzzShard().encode() }

// versionOneShard is fuzzShard as the version-1 codec framed it: the
// same bytes with the version word set back and the CRC recomputed.
// Field 1 of such a shard is the effective potential, not the Hartree
// one, so the decoder must refuse it rather than warm-start from it.
func versionOneShard() []byte {
	data := fuzzShardBytes()
	binary.LittleEndian.PutUint64(data[8:], 1)
	binary.LittleEndian.PutUint64(data[len(data)-8:], crc64.Checksum(data[:len(data)-8], crcTable))
	return data
}

// misshapenShards returns CRC-valid encodings whose field or scalar
// count disagrees with the band slice they declare — the shapes
// RestoreSCF would index out of range.
func misshapenShards() map[string][]byte {
	out := map[string][]byte{}
	for name, bend := range map[string]func(sh *shard){
		"a field short of its band slice": func(sh *shard) { sh.Fields = sh.Fields[:2] },
		"no fields at all":                func(sh *shard) { sh.Fields = nil },
		"a field too many":                func(sh *shard) { sh.Fields = append(sh.Fields, sh.Fields[0]) },
		"band slice reversed":             func(sh *shard) { sh.BandLo, sh.BandHi = 1, 0 },
		"band slice below zero":           func(sh *shard) { sh.BandLo, sh.Fields = -1, append(sh.Fields, sh.Fields[0]) },
		"band slice past the states":      func(sh *shard) { sh.BandHi, sh.Fields = 2, append(sh.Fields, sh.Fields[0]) },
		"a Ritz value short":              func(sh *shard) { sh.Scalars = nil },
	} {
		sh := fuzzShard()
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
	f.Add(versionOneShard())
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
		want := sh.Local.Count()
		for i, fl := range sh.Fields {
			if len(fl) != want {
				t.Fatalf("decoded field %d has %d values for box %v", i, len(fl), sh.Local)
			}
		}
		if sh.BandLo < 0 || sh.BandLo > sh.BandHi || sh.BandHi > sh.States ||
			len(sh.Fields) != 2+sh.BandHi-sh.BandLo || len(sh.Scalars) != sh.States {
			t.Fatalf("decoded %d fields, %d scalars for band slice [%d, %d) of %d states",
				len(sh.Fields), len(sh.Scalars), sh.BandLo, sh.BandHi, sh.States)
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
	// A well-formed shard of the previous format version names it.
	if _, err := decodeShard(versionOneShard()); !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("decode of a version-1 shard = %v, want ErrCheckpointCorrupt: unsupported version 1", err)
	}
	// And for counts that are honest about the bytes but not about the
	// band slice: CRC-valid, well-framed, wrong shape.
	for name, data := range misshapenShards() {
		if _, err := decodeShard(data); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("decode of a shard with %s = %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}
