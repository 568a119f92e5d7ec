package gpaw

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
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
// restart state and resuming from it. Every rank writes its own shard of
// the state (density, Hartree potential, its band slice of the
// wave-functions, the Pulay mixer's ring, the iteration counter); one
// small gather to world rank 0 builds the step's manifest, which lists
// every shard's box, band slice and CRC64. A step becomes valid only
// when its manifest commits, after every shard is stored, so a step
// interrupted by the very failure it is meant to survive is invisible to
// recovery. A restart re-tiles the shards onto ANY process grid and band
// layout (in particular the shrunken survivor grid after a rank failure):
// each rank fetches only the shards that overlap its sub-domain and band
// slice and copies their rows straight from the bytes into its grids.
// A save and a restore each end in one world verdict (Dist.verdict), so
// a store fault or a bad shard that one rank met fails every rank with
// the same typed error. Restarted runs are bit-identical to undisturbed
// ones because every reduction in the solver stack goes through the
// exact internal/detsum transports: the recomputed iterations cannot
// drift, whatever the new decomposition.

// Store is the persistence layer a Checkpointer writes through. MemStore
// stands in for a shared parallel filesystem in tests (it outlives any
// rank); DirStore is the on-disk form. Implementations must be safe for
// concurrent use by all ranks.
type Store interface {
	// PutShard stores one rank's shard of a checkpoint step. The caller
	// reuses data once PutShard returns, so a store keeps a copy.
	PutShard(step, rank int, data []byte) error
	// GetShard retrieves one shard. The caller only reads the bytes, so
	// a store may hand back the ones it holds.
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
	return d, nil
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

// Corrupt stores a copy of a shard with one byte flipped — injected
// bit-rot for chaos tests of the retention/fallback machinery. Bytes
// GetShard already handed out stay as they were.
func (s *MemStore) Corrupt(step, rank int, byteIdx int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.shards[[2]int{step, rank}]
	if !ok {
		return fmt.Errorf("gpaw: checkpoint step %d shard %d not found", step, rank)
	}
	d = slices.Clone(d)
	d[byteIdx%len(d)] ^= 0x40
	s.shards[[2]int{step, rank}] = d
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
	// synced, when set, sees every directory the store fsyncs.
	synced func(dir string)
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
// files and directories, renames, removals) are durable.
func (s *DirStore) syncDir(dir string) error {
	if s.synced != nil {
		s.synced(dir)
	}
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

// makeStepDir creates a step's directory if it is missing. The call that
// creates it fsyncs the store directory, which holds the new entry: a
// step directory that exists only in the page cache would take its
// shards and manifest with it on power loss, however well they were
// synced themselves.
func (s *DirStore) makeStepDir(step int) (string, error) {
	dir := s.stepDir(step)
	err := os.Mkdir(dir, 0o755)
	if errors.Is(err, fs.ErrExist) {
		return dir, nil
	}
	if err != nil {
		return "", err
	}
	return dir, s.syncDir(s.dir)
}

// PutShard implements Store. The shard is fsynced on write: the commit
// protocol assumes every shard of a step is durable before the manifest
// publishes the step, so the shard write itself must not linger in the
// page cache.
func (s *DirStore) PutShard(step, rank int, data []byte) error {
	dir, err := s.makeStepDir(step)
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(dir, fmt.Sprintf("shard-%04d.ckpt", rank)), data); err != nil {
		return err
	}
	return s.syncDir(dir)
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
	dir, err := s.makeStepDir(step)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "MANIFEST.json.tmp")
	if err := writeFileSync(tmp, manifest); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "MANIFEST.json")); err != nil {
		return err
	}
	return s.syncDir(dir)
}

// Manifest implements Store.
func (s *DirStore) Manifest(step int) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.stepDir(step), "MANIFEST.json"))
}

// Drop implements StepDropper. The manifest is removed first, so a
// crash mid-drop leaves an uncommitted (invisible) step rather than a
// committed one with missing shards; the store directory is synced
// last, so the removal of the step's directory is durable too.
func (s *DirStore) Drop(step int) error {
	dir := s.stepDir(step)
	if err := os.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := s.syncDir(dir); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return s.syncDir(s.dir)
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

// --- shard codec ----------------------------------------------------

const (
	shardMagic = uint64(0x4750434b5f763100) // "GPCK_v1\0"
	// shardVersion 4: the manifest lists every shard's box and band slice
	// beside its checksum, so a restoring rank picks the shards it
	// re-tiles before reading any. Version 3 manifests list checksums
	// alone; version 2 shards hold no mixer history — resumed, they would
	// restart the mixer and leave the undisturbed run's bits — and
	// version 1 ones the effective potential where the Hartree one now is.
	// All three are refused.
	shardVersion = 4

	shardKindSCF = 1 // the one kind of state checkpointed: the SCF loop's

	// shardHeaderWords counts the words ahead of the scalars: magic,
	// version, kind, iteration, the three boxes, the spacing, BC, the
	// state count, the band slice, the history and the scalar count.
	shardHeaderWords = 20
)

// ErrCheckpointCorrupt wraps checksum and format failures detected when
// reading a shard back.
var ErrCheckpointCorrupt = errors.New("gpaw: corrupt checkpoint shard")

// ErrCheckpointUnreadable wraps a store's failure to hand back a
// committed step's manifest or one of its shards, or to list the
// committed steps.
var ErrCheckpointUnreadable = errors.New("gpaw: unreadable checkpoint")

// ErrCheckpointUnwritable wraps a store's failure to take a rank's shard
// of a step or to commit the step's manifest.
var ErrCheckpointUnwritable = errors.New("gpaw: unwritable checkpoint")

var crcTable = crc64.MakeTable(crc64.ECMA)

// shard is one rank's checkpoint piece as saveSCF assembles it. Fields
// are grids whose interiors cover the Local box at Off:
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

// encode serializes the shard into dst's storage, trailed by a CRC64 of
// everything before it, and returns the encoding. The buffer grows at
// most once, and each field is written straight from its grid's interior
// rows.
func (sh *shard) encode(dst []byte) []byte {
	words := shardHeaderWords + len(sh.Scalars) + 2 // the field count and the CRC
	for _, f := range sh.Fields {
		words += 1 + f.Points()
	}
	buf := slices.Grow(dst[:0], 8*words)
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
	for _, x := range sh.Scalars {
		u64(math.Float64bits(x))
	}
	i64(len(sh.Fields))
	for _, f := range sh.Fields {
		i64(f.Points())
		data := f.Data()
		for i := 0; i < f.Nx; i++ {
			for j := 0; j < f.Ny; j++ {
				row, at := f.Index(i, j, 0), len(buf)
				buf = buf[:at+8*f.Nz]
				putRow(buf[at:], data[row:row+f.Nz])
			}
		}
	}
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
}

// putRow and getRow move a row of values to and from its little-endian
// encoding, which holds 8 bytes per value, with no bounds check per
// value.
func putRow(dst []byte, src []float64) {
	for i := 0; i < len(src) && len(dst) >= 8; i++ {
		binary.LittleEndian.PutUint64(dst[:8], math.Float64bits(src[i]))
		dst = dst[8:]
	}
}

func getRow(dst []float64, src []byte) {
	for i := 0; i < len(dst) && len(src) >= 8; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[:8]))
		src = src[8:]
	}
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
// remaining — compared divided rather than multiplied, because 8*n
// overflows for adversarial lengths (n ~ 1<<61 wraps negative and would
// pass a naive r.pos+8*n check).
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

// shardView is an encoded shard read in place: checksum-verified, its
// header parsed and its framing checked, its scalars and fields left in
// the bytes they arrived in.
type shardView struct {
	shard         // the header; Scalars and Fields stay nil
	data   []byte // the encoding, CRC trailer included
	scalar int    // byte offset of the first scalar
	field  int    // byte offset of field 0's length prefix
}

// sum returns the shard's recorded CRC64.
func (v *shardView) sum() uint64 { return binary.LittleEndian.Uint64(v.data[len(v.data)-8:]) }

// scalars decodes len(dst) scalars, from the first-th on, into dst.
func (v *shardView) scalars(dst []float64, first int) { getRow(dst, v.data[v.scalar+8*first:]) }

// fieldBytes returns field i's values, x-major over the shard's box.
func (v *shardView) fieldBytes(i int) []byte {
	n := 8 * v.Local.Count()
	at := v.field + i*(8+n) + 8
	return v.data[at : at+n]
}

// parseShard checksum-verifies an encoded shard and reads its header and
// framing, allocating nothing for its contents. The header is held to
// its band slice and history, and the framing to the box, before any
// offset is trusted, so a parsed view is exactly what RestoreSCF indexes.
func parseShard(data []byte) (*shardView, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCheckpointCorrupt, len(data))
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if got := crc64.Checksum(body, crcTable); got != sum {
		return nil, fmt.Errorf("%w: checksum %016x != recorded %016x", ErrCheckpointCorrupt, got, sum)
	}
	r := shardReader{buf: body}
	if m := r.u64(); m != shardMagic {
		return nil, fmt.Errorf("%w: bad magic %016x", ErrCheckpointCorrupt, m)
	}
	if v := r.i64(); v != shardVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, v)
	}
	v := &shardView{data: data}
	v.Kind, v.Iteration = r.i64(), r.i64()
	for d := 0; d < 3; d++ {
		v.Global[d] = r.i64()
	}
	for d := 0; d < 3; d++ {
		v.Off[d] = r.i64()
	}
	for d := 0; d < 3; d++ {
		v.Local[d] = r.i64()
	}
	v.Spacing = r.f64()
	v.BC, v.States, v.BandLo, v.BandHi, v.Hist = r.i64(), r.i64(), r.i64(), r.i64(), r.i64()
	ns := r.length()
	v.scalar = r.pos
	r.pos += 8 * ns
	nf := r.i64()
	if r.err != nil {
		return nil, r.err
	}
	for d := 0; d < 3; d++ {
		if v.Local[d] < 1 || v.Local[d] > 1<<20 {
			return nil, fmt.Errorf("%w: implausible box %v", ErrCheckpointCorrupt, v.Local)
		}
	}
	// RestoreSCF indexes density, v_H, a field per state of the band
	// slice and a pair per kept mixer step.
	if v.BandLo < 0 || v.BandLo > v.BandHi || v.BandHi > v.States || v.Hist < 0 || v.Hist > pulayHistory ||
		nf != v.wantFields() || ns != v.wantScalars() {
		return nil, fmt.Errorf("%w: %d fields and %d scalars for band slice [%d, %d) of %d states and %d mixer pairs",
			ErrCheckpointCorrupt, nf, ns, v.BandLo, v.BandHi, v.States, v.Hist)
	}
	// Each field is a length prefix and the box's values, and the fields
	// fill the rest of the body exactly. The sizes are compared divided,
	// so no product of forged counts can overflow.
	n, rest := v.Local.Count(), len(body)-r.pos
	if nf < 1 || n+1 > rest/8/nf || 8*nf*(n+1) != rest {
		return nil, fmt.Errorf("%w: %d bytes for %d fields of box %v", ErrCheckpointCorrupt, rest, nf, v.Local)
	}
	v.field = r.pos
	for i := range nf {
		if got := int(binary.LittleEndian.Uint64(body[v.field+8*i*(n+1):])); got != n {
			return nil, fmt.Errorf("%w: field %d has %d values for box %v", ErrCheckpointCorrupt, i, got, v.Local)
		}
	}
	return v, nil
}

// manifest is the commit record of a checkpoint step. It lists what each
// rank's shard covers beside its checksum, so a restoring rank can pick
// the shards it re-tiles before reading any.
type manifest struct {
	Version int             `json:"version"`
	Kind    int             `json:"kind"`
	Step    int             `json:"step"`
	Ranks   int             `json:"ranks"`
	States  int             `json:"states"`
	Hist    int             `json:"hist"`
	Global  [3]int          `json:"global"`
	Shards  []manifestShard `json:"shards"` // by writing rank
}

// manifestShard is one shard's entry in its step's manifest.
type manifestShard struct {
	Off   topology.Coord `json:"off"`
	Local topology.Dims  `json:"local"`
	Bands [2]int         `json:"bands"` // the band slice [lo, hi)
	Sum   string         `json:"sum"`   // CRC64, hex
}

func readManifest(st Store, step int) (*manifest, error) {
	raw, err := st.Manifest(step)
	if err != nil {
		return nil, fmt.Errorf("%w: step %d manifest: %w", ErrCheckpointUnreadable, step, err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCheckpointCorrupt, err)
	}
	if m.Version != shardVersion {
		return nil, fmt.Errorf("%w: manifest: unsupported version %d", ErrCheckpointCorrupt, m.Version)
	}
	if len(m.Shards) != m.Ranks {
		return nil, fmt.Errorf("%w: manifest lists %d entries for %d shards", ErrCheckpointCorrupt, len(m.Shards), m.Ranks)
	}
	return &m, nil
}

// readShard fetches shard r of a committed step and holds it to the
// manifest: its CRC64 to the recorded one, its box and band slice to the
// shard's entry, and its kind, extents, state count and history to the
// step's. The fields stay in the bytes the store returned.
func readShard(st Store, man *manifest, step, r int) (*shardView, error) {
	data, err := st.GetShard(step, r)
	if err != nil {
		return nil, fmt.Errorf("%w: step %d shard %d: %w", ErrCheckpointUnreadable, step, r, err)
	}
	v, err := parseShard(data)
	if err != nil {
		return nil, fmt.Errorf("step %d shard %d: %w", step, r, err)
	}
	e := &man.Shards[r]
	if sum, err := strconv.ParseUint(e.Sum, 16, 64); err != nil || sum != v.sum() {
		return nil, fmt.Errorf("%w: step %d shard %d checksum mismatch", ErrCheckpointCorrupt, step, r)
	}
	if v.Off != e.Off || v.Local != e.Local || v.BandLo != e.Bands[0] || v.BandHi != e.Bands[1] {
		return nil, fmt.Errorf("%w: step %d shard %d covers %v at %v, band slice [%d, %d); its manifest entry %v at %v, [%d, %d)",
			ErrCheckpointCorrupt, step, r, v.Local, v.Off, v.BandLo, v.BandHi, e.Local, e.Off, e.Bands[0], e.Bands[1])
	}
	if v.Kind != man.Kind || v.Global != topology.Dims(man.Global) || v.States != man.States || v.Hist != man.Hist {
		return nil, fmt.Errorf("%w: step %d shard %d is kind %d over %v with %d states and %d mixer pairs, manifest kind %d over %v with %d and %d",
			ErrCheckpointCorrupt, step, r, v.Kind, v.Global, v.States, v.Hist, man.Kind, man.Global, man.States, man.Hist)
	}
	return v, nil
}

// --- checkpointer ---------------------------------------------------

// Checkpointer periodically snapshots solver state into a Store: every
// Every-th iteration (<= 1 means every iteration), each rank writes its
// own shard, and its store status and manifest entry gather to world
// rank 0 — the completion barrier — which commits the manifest only if
// every shard was stored. One world verdict then fails every rank's save
// with ErrCheckpointUnwritable if any store call failed. A Checkpointer
// belongs to one rank: it encodes every save into the same buffer.
type Checkpointer struct {
	Store Store
	Every int
	// Keep bounds retention to the newest Keep committed generations
	// (<= 0 keeps everything). Retention must be > 1 for rollback to
	// have somewhere to fall back to when the newest generation is
	// rejected by CRC validation. Pruning needs the Store to implement
	// StepDropper; stores without it keep everything.
	Keep int

	buf []byte // the last save's encoding, reused by the next
}

// due reports whether iteration it should be checkpointed.
func (ck *Checkpointer) due(it int) bool {
	if ck == nil || ck.Store == nil {
		return false
	}
	return ck.Every <= 1 || it%ck.Every == 0
}

// commitWords is one shard's part of the commit gather: its store status
// (0 stored), the CRC64, the box's offset and extents, the band slice.
const commitWords = 1 + 1 + 3 + 3 + 2

// save writes one rank's shard and commits the step's manifest at world
// rank 0. The checksum is the encoding's trailer; it travels through the
// float64 collective transport bit-exactly (Float64frombits/Float64bits
// round-trip every uint64), and the status, box and band slice beside it
// as integral values.
func (ck *Checkpointer) save(d *Dist, sh *shard) error {
	sp := d.Cart.TraceRank().Begin("ckpt.save", trace.KindRegion)
	defer sp.End()
	ck.buf = sh.encode(ck.buf)
	data, step, rank := ck.buf, sh.Iteration, d.World.Rank()
	err := ck.Store.PutShard(step, rank, data)
	in := [commitWords]float64{0, math.Float64frombits(binary.LittleEndian.Uint64(data[len(data)-8:])),
		float64(sh.Off[0]), float64(sh.Off[1]), float64(sh.Off[2]),
		float64(sh.Local[0]), float64(sh.Local[1]), float64(sh.Local[2]),
		float64(sh.BandLo), float64(sh.BandHi)}
	if err != nil {
		in[0], err = 1, fmt.Errorf("shard %d: %w", rank, err)
	}
	var out []float64
	if rank == 0 {
		out = make([]float64, commitWords*d.World.Size())
	}
	d.World.Gather(0, in[:], out)
	if rank == 0 && err == nil {
		if err = ck.commit(sh, out); err != nil {
			in[0] = 1
		}
	}
	if d.verdict(int(in[0])) == 0 {
		return nil
	}
	if err == nil {
		err = errors.New("another rank's shard or the commit failed")
	}
	return fmt.Errorf("%w: step %d: %w", ErrCheckpointUnwritable, step, err)
}

// commit builds the step's manifest from the gathered words and, if
// every shard was stored, commits it and prunes. It runs at world rank 0.
func (ck *Checkpointer) commit(sh *shard, words []float64) error {
	man := manifest{Version: shardVersion, Kind: sh.Kind, Step: sh.Iteration, Ranks: len(words) / commitWords,
		States: sh.States, Hist: sh.Hist, Global: sh.Global}
	for r := range man.Ranks {
		w := words[r*commitWords:][:commitWords]
		if w[0] != 0 {
			return fmt.Errorf("rank %d's shard was not stored", r)
		}
		e := manifestShard{Sum: fmt.Sprintf("%016x", math.Float64bits(w[1])), Bands: [2]int{int(w[8]), int(w[9])}}
		for k := range 3 {
			e.Off[k], e.Local[k] = int(w[2+k]), int(w[5+k])
		}
		man.Shards = append(man.Shards, e)
	}
	raw, err := json.Marshal(&man)
	if err == nil {
		err = ck.Store.Commit(sh.Iteration, raw)
	}
	if err != nil {
		return fmt.Errorf("commit: %w", err)
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

// fetch is one shard a restoring rank reads. common marks the first
// fetched shard of its box, which supplies the fields every band group
// holds: density, v_H and the mixer ring.
type fetch struct {
	rank   int
	common bool
}

// fetchSet returns, in rank order, the shards a rank whose sub-domain is
// local at off and whose band slice is [lo, hi) re-tiles: every shard
// whose box meets the sub-domain and whose band slice meets [lo, hi),
// and, for a box where no shard's band slice does, that box's first
// shard alone.
func (man *manifest) fetchSet(off topology.Coord, local topology.Dims, lo, hi int) []fetch {
	meets := func(q int) bool { return max(man.Shards[q].Bands[0], lo) < min(man.Shards[q].Bands[1], hi) }
	var out []fetch
	for r, e := range man.Shards {
		if _, _, ok := grid.IntersectBox(e.Off, e.Local, off, local); !ok {
			continue
		}
		sameBox := func(q int) bool { return man.Shards[q].Off == e.Off && man.Shards[q].Local == e.Local }
		if !meets(r) {
			// Fetched only as the first shard of a box no band slice meets.
			first := true
			for q := range man.Shards {
				first = first && !(sameBox(q) && (q < r || meets(q)))
			}
			if !first {
				continue
			}
		}
		common := true
		for _, f := range out {
			common = common && !sameBox(f.rank)
		}
		out = append(out, fetch{r, common})
	}
	return out
}

// copyShardBox copies field f of a shard over the intersection (lo,
// dims) of the shard's box with the sub-domain at dstOff into dst, row
// by row straight from the encoded bytes.
func copyShardBox(dst *grid.Grid, dstOff topology.Coord, v *shardView, f int, lo topology.Coord, dims topology.Dims) {
	src, data := v.fieldBytes(f), dst.Data()
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			at := ((lo[0]-v.Off[0]+i)*v.Local[1]+lo[1]-v.Off[1]+j)*v.Local[2] + lo[2] - v.Off[2]
			row := dst.Index(lo[0]-dstOff[0]+i, lo[1]-dstOff[1]+j, lo[2]-dstOff[2])
			getRow(data[row:row+dims[2]], src[8*at:])
		}
	}
}

// RestoreSCF re-tiles a committed SCF checkpoint onto the Dist's
// process grid and band layout — the same layout it was written from,
// a shrunken survivor grid, or a grown one. Every rank reads the
// manifest and fetches only the shards it re-tiles: those whose box
// meets its sub-domain and whose band slice meets its own, and for a box
// where no band slice does, that box's first shard, for the density,
// v_H and mixer ring every band group holds. It checks each against the
// manifest and copies the intersection with its sub-domain straight from
// the bytes into its grids — gather-free, exactly like a
// grid.Redistribute whose source layout happens to live in the store.
//
// Each rank sees only the faults of the shards it fetched, so the ranks
// end with one world verdict, and every rank fails alike: first if any
// rank found a step it cannot take (another kind or system), else with
// ErrCheckpointCorrupt if any found a shard corrupt, else with
// ErrCheckpointUnreadable if any could not read the manifest or a shard.
// A rank returns its own error if it is of the agreed class, so every
// rank's error is of that class.
func RestoreSCF(d *Dist, st Store, step int) (*SCFRestart, error) {
	sp := d.Cart.TraceRank().Begin("ckpt.restore", trace.KindRegion)
	defer sp.End()
	rs, err := restoreSCF(d, st, step)
	// The status code, the graver the larger: 0 restored, 1 unreadable,
	// 2 corrupt, 3 a step this Dist cannot take.
	code := 3
	switch {
	case err == nil:
		code = 0
	case errors.Is(err, ErrCheckpointCorrupt):
		code = 2
	case errors.Is(err, ErrCheckpointUnreadable):
		code = 1
	}
	switch d.verdict(code) {
	case code:
		return rs, err
	case 2:
		return nil, fmt.Errorf("%w: step %d: a shard another rank read failed verification", ErrCheckpointCorrupt, step)
	case 1:
		return nil, fmt.Errorf("%w: step %d: another rank could not read its shards", ErrCheckpointUnreadable, step)
	default:
		return nil, fmt.Errorf("gpaw: checkpoint step %d: another rank cannot take it", step)
	}
}

// restoreSCF is one rank's part of RestoreSCF, up to the agreement.
func restoreSCF(d *Dist, st Store, step int) (*SCFRestart, error) {
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
	off, local := d.Offset(), d.LocalDims()
	myLo, myHi := d.BandRange(man.States)
	fetches := man.fetchSet(off, local, myLo, myHi)
	if len(fetches) == 0 {
		return nil, fmt.Errorf("%w: step %d: no shard covers the sub-domain %v at %v", ErrCheckpointCorrupt, step, local, off)
	}
	rs := &SCFRestart{States: man.States, N: d.NewLocalGrid(), VHartree: d.NewLocalGrid(),
		Psis: make([]*grid.Grid, myHi-myLo)}
	for i := range rs.Psis {
		rs.Psis[i] = d.NewLocalGrid()
	}
	mix := &rs.mix
	for k, f := range fetches {
		v, err := readShard(st, man, step, f.rank)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			rs.Iteration, rs.Eig, mix.hist = v.Iteration, make([]float64, v.States), v.Hist
			v.scalars(rs.Eig, 0)
			for h := range mix.hist {
				mix.in[h], mix.res[h] = grid.NewDims(local, 0), grid.NewDims(local, 0)
				v.scalars(mix.gram[h][:mix.hist], v.States+h*mix.hist)
			}
		}
		lo, dims, _ := grid.IntersectBox(v.Off, v.Local, off, local)
		for s := max(v.BandLo, myLo); s < min(v.BandHi, myHi); s++ {
			copyShardBox(rs.Psis[s-myLo], off, v, 2+s-v.BandLo, lo, dims)
		}
		if !f.common {
			continue
		}
		copyShardBox(rs.N, off, v, 0, lo, dims)
		copyShardBox(rs.VHartree, off, v, 1, lo, dims)
		ring := 2 + v.BandHi - v.BandLo
		for h := range mix.hist {
			copyShardBox(mix.in[h], off, v, ring+h, lo, dims)
			copyShardBox(mix.res[h], off, v, ring+mix.hist+h, lo, dims)
		}
	}
	return rs, nil
}
