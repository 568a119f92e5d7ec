package gpaw

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/grid"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Checkpoint/restart. Long SCF runs at Blue Gene scale survive node
// loss the way production GPAW deployments do: by periodically writing
// restart state and resuming from it. The design here is gather-free —
// every rank writes its own shard of the state (density, Hartree
// potential, its band slice of the wave-functions, the iteration
// counter), so checkpointing costs no global communication beyond one
// scalar gather for the commit record. Shards are self-describing
// (global extents, sub-domain box, band range), versioned and CRC-
// checksummed, so a restart may re-tile them onto ANY process grid and
// band layout — in particular onto the shrunken survivor grid after a
// rank failure. Restarted runs are bit-identical to undisturbed ones
// because every reduction in the solver stack goes through the exact
// internal/detsum transports: the recomputed iterations cannot drift,
// whatever the new decomposition.
//
// A checkpoint step becomes valid only when its manifest commits
// (two-phase: shards first, then the manifest naming their checksums),
// so a step interrupted by the very failure it is meant to survive is
// simply invisible to recovery.

// Store is the persistence layer a Checkpointer writes through. MemStore
// stands in for a shared parallel filesystem in tests (it outlives any
// rank); DirStore is the on-disk form. Implementations must be safe for
// concurrent use by all ranks.
type Store interface {
	// PutShard stores one rank's shard of a checkpoint step.
	PutShard(step, rank int, data []byte) error
	// GetShard retrieves one shard.
	GetShard(step, rank int) ([]byte, error)
	// Commit finalizes a step by storing its manifest; a step without a
	// manifest is invisible to Steps and recovery.
	Commit(step int, manifest []byte) error
	// Manifest returns a committed step's manifest.
	Manifest(step int) ([]byte, error)
	// Steps lists the committed steps in ascending order.
	Steps() ([]int, error)
}

// MemStore is an in-memory Store shared by all ranks of an in-process
// world — the test stand-in for the parallel filesystem, surviving the
// death of any rank goroutine.
type MemStore struct {
	mu        sync.Mutex
	shards    map[[2]int][]byte
	manifests map[int][]byte
}

// NewMemStore returns an empty in-memory checkpoint store.
func NewMemStore() *MemStore {
	return &MemStore{shards: make(map[[2]int][]byte), manifests: make(map[int][]byte)}
}

// PutShard implements Store.
func (s *MemStore) PutShard(step, rank int, data []byte) error {
	s.mu.Lock()
	s.shards[[2]int{step, rank}] = append([]byte(nil), data...)
	s.mu.Unlock()
	return nil
}

// GetShard implements Store.
func (s *MemStore) GetShard(step, rank int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.shards[[2]int{step, rank}]
	if !ok {
		return nil, fmt.Errorf("gpaw: checkpoint step %d shard %d not found", step, rank)
	}
	return append([]byte(nil), d...), nil
}

// Commit implements Store.
func (s *MemStore) Commit(step int, manifest []byte) error {
	s.mu.Lock()
	s.manifests[step] = append([]byte(nil), manifest...)
	s.mu.Unlock()
	return nil
}

// Manifest implements Store.
func (s *MemStore) Manifest(step int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[step]
	if !ok {
		return nil, fmt.Errorf("gpaw: checkpoint step %d not committed", step)
	}
	return append([]byte(nil), m...), nil
}

// Steps implements Store.
func (s *MemStore) Steps() ([]int, error) {
	s.mu.Lock()
	steps := make([]int, 0, len(s.manifests))
	for st := range s.manifests {
		steps = append(steps, st)
	}
	s.mu.Unlock()
	sort.Ints(steps)
	return steps, nil
}

// Drop implements StepDropper: the step's manifest and shards are
// removed.
func (s *MemStore) Drop(step int) error {
	s.mu.Lock()
	delete(s.manifests, step)
	for k := range s.shards {
		if k[0] == step {
			delete(s.shards, k)
		}
	}
	s.mu.Unlock()
	return nil
}

// Corrupt flips one byte of a stored shard — injected bit-rot for
// chaos tests of the retention/fallback machinery.
func (s *MemStore) Corrupt(step, rank int, byteIdx int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.shards[[2]int{step, rank}]
	if !ok {
		return fmt.Errorf("gpaw: checkpoint step %d shard %d not found", step, rank)
	}
	d[byteIdx%len(d)] ^= 0x40
	return nil
}

// DirStore persists checkpoints under a directory:
//
//	<dir>/step-NNNNNN/shard-NNNN.ckpt
//	<dir>/step-NNNNNN/MANIFEST.json
//
// The manifest is written to a temporary file and renamed, so a step is
// either fully committed or absent — an interrupted run can never leave
// a half-valid checkpoint behind.
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if needed) an on-disk checkpoint store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) stepDir(step int) string {
	return filepath.Join(s.dir, fmt.Sprintf("step-%06d", step))
}

// writeFileSync writes data to path and fsyncs the file before closing,
// so the contents are durable — not just buffered in the page cache —
// by the time the call returns.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so metadata operations inside it (created
// files, renames) are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// PutShard implements Store. The shard is fsynced on write: the commit
// protocol assumes every shard of a step is durable before the manifest
// publishes the step, so the shard write itself must not linger in the
// page cache.
func (s *DirStore) PutShard(step, rank int, data []byte) error {
	dir := s.stepDir(step)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(dir, fmt.Sprintf("shard-%04d.ckpt", rank)), data); err != nil {
		return err
	}
	return syncDir(dir)
}

// GetShard implements Store.
func (s *DirStore) GetShard(step, rank int) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.stepDir(step), fmt.Sprintf("shard-%04d.ckpt", rank)))
}

// Commit implements Store: fsynced temp file + rename + directory
// fsync, the durable atomic publication. The temp file is synced before
// the rename (a rename can otherwise land before its data, leaving a
// committed-looking step with an empty manifest after power loss) and
// the directory after it (the rename itself is metadata that must
// reach the journal for the step to exist at all post-crash).
func (s *DirStore) Commit(step int, manifest []byte) error {
	dir := s.stepDir(step)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, "MANIFEST.json.tmp")
	if err := writeFileSync(tmp, manifest); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "MANIFEST.json")); err != nil {
		return err
	}
	return syncDir(dir)
}

// Manifest implements Store.
func (s *DirStore) Manifest(step int) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.stepDir(step), "MANIFEST.json"))
}

// Drop implements StepDropper. The manifest is removed first, so a
// crash mid-drop leaves an uncommitted (invisible) step rather than a
// committed one with missing shards.
func (s *DirStore) Drop(step int) error {
	dir := s.stepDir(step)
	if err := os.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// Steps implements Store.
func (s *DirStore) Steps() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "step-") {
			continue
		}
		st, err := strconv.Atoi(strings.TrimPrefix(name, "step-"))
		if err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.dir, name, "MANIFEST.json")); err != nil {
			continue // uncommitted step: invisible
		}
		steps = append(steps, st)
	}
	sort.Ints(steps)
	return steps, nil
}

// StepDropper is the optional Store extension the Checkpointer's
// retention policy uses to prune old generations. Both MemStore and
// DirStore implement it; a store without it simply keeps everything.
type StepDropper interface {
	Drop(step int) error
}

// ValidateStep deep-checks one committed step: the manifest must parse
// and every shard must exist, match its recorded CRC64 and decode. This
// is what lets recovery distinguish a bit-rotted generation from a good
// one before committing to a restore.
func ValidateStep(st Store, step int) error {
	man, err := readManifest(st, step)
	if err != nil {
		return err
	}
	for r := 0; r < man.Ranks; r++ {
		if _, err := readShard(st, man, step, r); err != nil {
			return err
		}
	}
	return nil
}

// LatestGoodStep returns the newest committed step that passes full
// CRC64 validation, walking back a generation at a time past bit-rotted
// or truncated ones. fellBack reports whether any newer generation was
// rejected — the signal behind the ckpt.fallback trace event.
func LatestGoodStep(st Store) (step int, fellBack, ok bool, err error) {
	steps, err := st.Steps()
	if err != nil {
		return 0, false, false, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if ValidateStep(st, steps[i]) == nil {
			return steps[i], i != len(steps)-1, true, nil
		}
	}
	return 0, len(steps) > 0, false, nil
}

// --- shard codec ----------------------------------------------------

const (
	shardMagic = uint64(0x4750434b5f763100) // "GPCK_v1\0"
	// shardVersion 3: the shard carries the Pulay mixer's ring after the
	// states. Version 2 held no history — resumed, it would restart the
	// mixer and leave the undisturbed run's bits — and version 1 held the
	// effective potential where the Hartree one now is; both are refused.
	shardVersion = 3

	shardKindSCF = 1 // the one kind of state checkpointed: the SCF loop's
)

// ErrCheckpointCorrupt wraps checksum and format failures detected when
// reading a shard back.
var ErrCheckpointCorrupt = errors.New("gpaw: corrupt checkpoint shard")

var crcTable = crc64.MakeTable(crc64.ECMA)

// shard is one rank's checkpoint piece. Fields are grids whose interiors
// cover the Local box at Off (decoded ones are halo-free):
// [density, v_H, psi(BandLo) .. psi(BandHi-1), n_in,0 .. n_in,Hist-1,
// R_0 .. R_Hist-1].
type shard struct {
	Kind      int
	Iteration int
	Global    topology.Dims
	Off       topology.Coord
	Local     topology.Dims
	Spacing   float64
	BC        int
	States    int // m, the global state count (the eigensolver's guard included)
	BandLo    int // this shard's band slice [BandLo, BandHi)
	BandHi    int
	Hist      int // the Pulay mixer's live pairs, oldest first
	// Scalars are the m Ritz values of the iteration, which bound the
	// next one's filter, then the mixer's Hist x Hist Gram matrix by rows.
	Scalars []float64
	Fields  []*grid.Grid
}

// wantFields and wantScalars are the counts a shard's band slice and
// history call for.
func (sh *shard) wantFields() int  { return 2 + sh.BandHi - sh.BandLo + 2*sh.Hist }
func (sh *shard) wantScalars() int { return sh.States + sh.Hist*sh.Hist }

// encode serializes the shard with a trailing CRC64 of everything
// before it. After the header the buffer grows once to hold the rest, and
// each field is written straight from its grid's interior rows.
func (sh *shard) encode() []byte {
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	i64 := func(v int) { u64(uint64(v)) }
	u64(shardMagic)
	i64(shardVersion)
	i64(sh.Kind)
	i64(sh.Iteration)
	for _, box := range [][3]int{sh.Global, sh.Off, sh.Local} {
		for _, v := range box {
			i64(v)
		}
	}
	u64(math.Float64bits(sh.Spacing))
	for _, v := range []int{sh.BC, sh.States, sh.BandLo, sh.BandHi, sh.Hist, len(sh.Scalars)} {
		i64(v)
	}
	rest := len(sh.Scalars) + 2 // the field count and the CRC
	for _, f := range sh.Fields {
		rest += 1 + f.Points()
	}
	buf = slices.Grow(buf, 8*rest)
	for _, x := range sh.Scalars {
		u64(math.Float64bits(x))
	}
	i64(len(sh.Fields))
	for _, f := range sh.Fields {
		i64(f.Points())
		data := f.Data()
		for i := 0; i < f.Nx; i++ {
			for j := 0; j < f.Ny; j++ {
				row := f.Index(i, j, 0)
				for _, x := range data[row : row+f.Nz] {
					u64(math.Float64bits(x))
				}
			}
		}
	}
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
}

type shardReader struct {
	buf []byte
	pos int
	err error
}

func (r *shardReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.err = fmt.Errorf("%w: truncated at byte %d", ErrCheckpointCorrupt, r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}
func (r *shardReader) i64() int     { return int(r.u64()) }
func (r *shardReader) f64() float64 { return math.Float64frombits(r.u64()) }

// length reads a vector length and bounds it by the bytes actually
// remaining BEFORE any allocation — compared divided rather than
// multiplied, because 8*n overflows for adversarial lengths (n ~ 1<<61
// wraps negative, passes a naive r.pos+8*n check, and the allocation
// would OOM on garbage input).
func (r *shardReader) length() int {
	n := r.i64()
	if r.err == nil && (n < 0 || n > (len(r.buf)-r.pos)/8) {
		r.err = fmt.Errorf("%w: implausible vector length %d", ErrCheckpointCorrupt, n)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// f64s reads n values into dst, or into a new slice when dst is nil.
func (r *shardReader) f64s(n int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, n)
	}
	for i := range dst {
		dst[i] = r.f64()
	}
	return dst
}

// decodeShard parses and checksum-verifies an encoded shard. The header
// is held to its band slice and history before any field is read, and
// every field to the box, so a decoded shard is exactly what RestoreSCF
// indexes.
func decodeShard(data []byte) (*shard, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCheckpointCorrupt, len(data))
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if got := crc64.Checksum(body, crcTable); got != sum {
		return nil, fmt.Errorf("%w: checksum %016x != recorded %016x", ErrCheckpointCorrupt, got, sum)
	}
	r := &shardReader{buf: body}
	if m := r.u64(); m != shardMagic {
		return nil, fmt.Errorf("%w: bad magic %016x", ErrCheckpointCorrupt, m)
	}
	if v := r.i64(); v != shardVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, v)
	}
	sh := &shard{Kind: r.i64(), Iteration: r.i64()}
	for d := 0; d < 3; d++ {
		sh.Global[d] = r.i64()
	}
	for d := 0; d < 3; d++ {
		sh.Off[d] = r.i64()
	}
	for d := 0; d < 3; d++ {
		sh.Local[d] = r.i64()
	}
	sh.Spacing = r.f64()
	sh.BC = r.i64()
	sh.States = r.i64()
	sh.BandLo = r.i64()
	sh.BandHi = r.i64()
	sh.Hist = r.i64()
	sh.Scalars = r.f64s(r.length(), nil)
	nf := r.i64()
	if r.err != nil {
		return nil, r.err
	}
	for d := 0; d < 3; d++ {
		if sh.Local[d] < 1 || sh.Local[d] > 1<<20 {
			return nil, fmt.Errorf("%w: implausible box %v", ErrCheckpointCorrupt, sh.Local)
		}
	}
	// Each field needs at least its 8-byte length prefix, so the count
	// is bounded by the bytes remaining — a garbage count can never
	// drive the allocation below past the input's own size.
	if nf < 0 || nf > (len(body)-r.pos)/8 {
		return nil, fmt.Errorf("%w: implausible field count %d", ErrCheckpointCorrupt, nf)
	}
	// RestoreSCF indexes density, v_H, a field per state of the band
	// slice and a pair per kept mixer step.
	if sh.BandLo < 0 || sh.BandLo > sh.BandHi || sh.BandHi > sh.States || sh.Hist < 0 || sh.Hist > pulayHistory ||
		nf != sh.wantFields() || len(sh.Scalars) != sh.wantScalars() {
		return nil, fmt.Errorf("%w: %d fields and %d scalars for band slice [%d, %d) of %d states and %d mixer pairs",
			ErrCheckpointCorrupt, nf, len(sh.Scalars), sh.BandLo, sh.BandHi, sh.States, sh.Hist)
	}
	want := sh.Local.Count()
	sh.Fields = make([]*grid.Grid, nf)
	for i := range sh.Fields {
		n := r.length()
		if r.err != nil {
			return nil, r.err
		}
		if n != want {
			return nil, fmt.Errorf("%w: field %d has %d values for box %v", ErrCheckpointCorrupt, i, n, sh.Local)
		}
		sh.Fields[i] = grid.NewDims(sh.Local, 0)
		r.f64s(want, sh.Fields[i].Data())
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, len(body)-r.pos)
	}
	return sh, nil
}

// manifest is the commit record of a checkpoint step.
type manifest struct {
	Version int      `json:"version"`
	Kind    int      `json:"kind"`
	Step    int      `json:"step"`
	Ranks   int      `json:"ranks"`
	States  int      `json:"states"`
	Hist    int      `json:"hist"`
	Global  [3]int   `json:"global"`
	Sums    []string `json:"sums"` // per-rank shard CRC64, hex
}

func readManifest(st Store, step int) (*manifest, error) {
	raw, err := st.Manifest(step)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCheckpointCorrupt, err)
	}
	if m.Version != shardVersion {
		return nil, fmt.Errorf("%w: manifest: unsupported version %d", ErrCheckpointCorrupt, m.Version)
	}
	if len(m.Sums) != m.Ranks {
		return nil, fmt.Errorf("%w: manifest lists %d checksums for %d shards", ErrCheckpointCorrupt, len(m.Sums), m.Ranks)
	}
	return &m, nil
}

// readShard reads shard r of a committed step, decodes it (verifying its
// trailing CRC64) and holds checksum and state count to the manifest's.
func readShard(st Store, man *manifest, step, r int) (*shard, error) {
	data, err := st.GetShard(step, r)
	if err != nil {
		return nil, fmt.Errorf("gpaw: checkpoint step %d shard %d: %w", step, r, err)
	}
	sh, err := decodeShard(data)
	if err != nil {
		return nil, fmt.Errorf("step %d shard %d: %w", step, r, err)
	}
	if fmt.Sprintf("%016x", binary.LittleEndian.Uint64(data[len(data)-8:])) != man.Sums[r] {
		return nil, fmt.Errorf("%w: step %d shard %d checksum mismatch", ErrCheckpointCorrupt, step, r)
	}
	if sh.States != man.States || sh.Hist != man.Hist {
		return nil, fmt.Errorf("%w: step %d shard %d holds %d states and %d mixer pairs, manifest %d and %d",
			ErrCheckpointCorrupt, step, r, sh.States, sh.Hist, man.States, man.Hist)
	}
	return sh, nil
}

// --- checkpointer ---------------------------------------------------

// Checkpointer periodically snapshots solver state into a Store: every
// Every-th iteration (<= 1 means every iteration), each rank writes its
// own shard, the shard checksums gather to world rank 0 over the exact
// bit-transport, and rank 0 commits the manifest. The gather doubles as
// the completion barrier: by the time rank 0 holds all checksums, every
// shard of the step is in the store.
type Checkpointer struct {
	Store Store
	Every int
	// Keep bounds retention to the newest Keep committed generations
	// (<= 0 keeps everything). Retention must be > 1 for rollback to
	// have somewhere to fall back to when the newest generation is
	// rejected by CRC validation. Pruning needs the Store to implement
	// StepDropper; stores without it keep everything.
	Keep int
}

// due reports whether iteration it should be checkpointed.
func (ck *Checkpointer) due(it int) bool {
	if ck == nil || ck.Store == nil {
		return false
	}
	return ck.Every <= 1 || it%ck.Every == 0
}

// save writes one rank's shard and commits the step's manifest at world
// rank 0. The checksum travels through the float64 collective transport
// bit-exactly (Float64frombits/Float64bits round-trip every uint64).
func (ck *Checkpointer) save(d *Dist, sh *shard) error {
	sp := d.Cart.TraceRank().Begin("ckpt.save", trace.KindRegion)
	defer sp.End()
	data := sh.encode()
	step := sh.Iteration
	if err := ck.Store.PutShard(step, d.World.Rank(), data); err != nil {
		return fmt.Errorf("gpaw: checkpoint step %d: %w", step, err)
	}
	sum := crc64.Checksum(data[:len(data)-8], crcTable)
	in := [1]float64{math.Float64frombits(sum)}
	var out []float64
	if d.World.Rank() == 0 {
		out = make([]float64, d.World.Size())
	}
	d.World.Gather(0, in[:], out)
	if d.World.Rank() != 0 {
		return nil
	}
	man := manifest{Version: shardVersion, Kind: sh.Kind, Step: step, Ranks: d.World.Size(),
		States: sh.States, Hist: sh.Hist, Global: [3]int{sh.Global[0], sh.Global[1], sh.Global[2]}}
	for _, b := range out {
		man.Sums = append(man.Sums, fmt.Sprintf("%016x", math.Float64bits(b)))
	}
	raw, err := json.Marshal(&man)
	if err != nil {
		return err
	}
	if err := ck.Store.Commit(step, raw); err != nil {
		return fmt.Errorf("gpaw: checkpoint step %d commit: %w", step, err)
	}
	ck.prune()
	return nil
}

// prune drops committed generations beyond the Keep newest. Runs at
// rank 0 only (the committer), after the new generation is durable —
// so a crash mid-prune can only leave extra generations, never too
// few.
func (ck *Checkpointer) prune() {
	if ck.Keep <= 0 {
		return
	}
	dr, ok := ck.Store.(StepDropper)
	if !ok {
		return
	}
	steps, err := ck.Store.Steps()
	if err != nil {
		return
	}
	for len(steps) > ck.Keep {
		// Best-effort: a failed drop leaves an extra generation, which
		// is safe.
		_ = dr.Drop(steps[0])
		steps = steps[1:]
	}
}

// saveSCF snapshots the SCF state after iteration it: mixed density,
// Hartree potential (the next solve's initial guess; the effective
// potential is a pointwise function of the two and the external one,
// rebuilt at resume), this band group's wave-function slice, all m Ritz
// values (they bound the next iteration's filter), the Pulay mixer's
// ring and Gram matrix, and the counter.
func (ck *Checkpointer) saveSCF(s *SCF, it, m int, eig []float64, psis []*grid.Grid, n, vh *grid.Grid, mix *pulayMixer) error {
	d := s.D
	lo, hi := d.BandRange(m)
	h := mix.hist
	sh := &shard{Kind: shardKindSCF, Iteration: it, Global: d.Decomp.Global,
		Off: d.Offset(), Local: d.LocalDims(), Spacing: s.Sys.Spacing, BC: int(s.Sys.BC),
		States: m, BandLo: lo, BandHi: hi, Hist: h,
		Scalars: make([]float64, 0, m+h*h), Fields: make([]*grid.Grid, 0, 2+len(psis)+2*h)}
	sh.Scalars = append(sh.Scalars, eig...)
	for i := range h {
		sh.Scalars = append(sh.Scalars, mix.gram[i][:h]...)
	}
	sh.Fields = append(sh.Fields, n, vh)
	sh.Fields = append(sh.Fields, psis...)
	sh.Fields = append(sh.Fields, mix.in[:h]...)
	sh.Fields = append(sh.Fields, mix.res[:h]...)
	return ck.save(d, sh)
}

// --- restore --------------------------------------------------------

// SCFRestart is a restored SCF state, ready for SCF.Resume on the
// Dist it was restored onto.
type SCFRestart struct {
	Iteration int
	States    int
	Eig       []float64
	Psis      []*grid.Grid
	N         *grid.Grid
	VHartree  *grid.Grid
	mix       pulayMixer
}

// copyShardBox copies the intersection of a shard's box with this
// rank's sub-domain from the shard field into the local grid.
func copyShardBox(dst *grid.Grid, dstOff topology.Coord, sh *shard, field *grid.Grid,
	lo topology.Coord, dims topology.Dims) {
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			src := field.Index(lo[0]-sh.Off[0]+i, lo[1]-sh.Off[1]+j, lo[2]-sh.Off[2])
			row := dst.Index(lo[0]-dstOff[0]+i, lo[1]-dstOff[1]+j, lo[2]-dstOff[2])
			copy(dst.Data()[row:row+dims[2]], field.Data()[src:src+dims[2]])
		}
	}
}

// RestoreSCF re-tiles a committed SCF checkpoint onto the Dist's
// process grid and band layout — the same layout it was written from,
// a shrunken survivor grid, or a grown one. Every rank reads the
// manifest and, shard by shard, copies the intersection of the old
// sub-domain boxes with its new one (and of the old band slices with
// its new one) — gather-free, exactly like a grid.Redistribute whose
// source layout happens to live in the store.
func RestoreSCF(d *Dist, st Store, step int) (*SCFRestart, error) {
	sp := d.Cart.TraceRank().Begin("ckpt.restore", trace.KindRegion)
	defer sp.End()
	man, err := readManifest(st, step)
	if err != nil {
		return nil, err
	}
	if man.Kind != shardKindSCF {
		return nil, fmt.Errorf("gpaw: checkpoint step %d is kind %d, want %d", step, man.Kind, shardKindSCF)
	}
	if topology.Dims(man.Global) != d.Decomp.Global {
		return nil, fmt.Errorf("gpaw: checkpoint global %v != decomposed global %v", man.Global, d.Decomp.Global)
	}
	if man.Ranks < 1 {
		return nil, fmt.Errorf("gpaw: checkpoint step %d has no shards", step)
	}
	myLo, myHi := d.BandRange(man.States)
	rs := &SCFRestart{States: man.States, N: d.NewLocalGrid(), VHartree: d.NewLocalGrid(),
		Psis: make([]*grid.Grid, myHi-myLo)}
	for i := range rs.Psis {
		rs.Psis[i] = d.NewLocalGrid()
	}
	mix := &rs.mix
	for r := 0; r < man.Ranks; r++ {
		sh, err := readShard(st, man, step, r)
		if err != nil {
			return nil, err
		}
		if r == 0 {
			rs.Iteration, rs.Eig, mix.hist = sh.Iteration, sh.Scalars[:sh.States], sh.Hist
			for h := range mix.hist {
				mix.in[h], mix.res[h] = grid.NewDims(d.local, 0), grid.NewDims(d.local, 0)
				copy(mix.gram[h][:mix.hist], sh.Scalars[sh.States+h*mix.hist:])
			}
		}
		lo, dims, ok := grid.IntersectBox(sh.Off, sh.Local, d.Offset(), d.LocalDims())
		if !ok {
			continue
		}
		copyShardBox(rs.N, d.Offset(), sh, sh.Fields[0], lo, dims)
		copyShardBox(rs.VHartree, d.Offset(), sh, sh.Fields[1], lo, dims)
		for st := max(sh.BandLo, myLo); st < min(sh.BandHi, myHi); st++ {
			copyShardBox(rs.Psis[st-myLo], d.Offset(), sh, sh.Fields[2+(st-sh.BandLo)], lo, dims)
		}
		ring := sh.Fields[2+sh.BandHi-sh.BandLo:]
		for h := range mix.hist {
			copyShardBox(mix.in[h], d.Offset(), sh, ring[h], lo, dims)
			copyShardBox(mix.res[h], d.Offset(), sh, ring[mix.hist+h], lo, dims)
		}
	}
	return rs, nil
}
