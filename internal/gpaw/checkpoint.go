package gpaw

import (
	"encoding/binary"
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
// wave-functions, the Pulay mixer's ring); a shard is data alone. One
// small gather to world rank 0 builds the step's manifest, the step's
// only header: the iteration, the state count, the mixer history, the
// system (grid, spacing, boundary) and every shard's box, band slice and
// CRC64, trailed by a CRC64 of its own. A step becomes valid only when
// its manifest commits, after every shard is stored, so a step
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
	StepDropper
}

// StepDropper removes a step, its manifest first, so the step is
// invisible before any of its shards goes: the Checkpointer's retention
// policy prunes old generations through it.
type StepDropper interface {
	Drop(step int) error
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
//	<dir>/step-NNNNNN/MANIFEST
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
	tmp := filepath.Join(dir, "MANIFEST.tmp")
	if err := writeFileSync(tmp, manifest); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "MANIFEST")); err != nil {
		return err
	}
	return s.syncDir(dir)
}

// Manifest implements Store.
func (s *DirStore) Manifest(step int) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.stepDir(step), "MANIFEST"))
}

// Drop implements StepDropper. The manifest is removed first, so a
// crash mid-drop leaves an uncommitted (invisible) step rather than a
// committed one with missing shards; the store directory is synced
// last, so the removal of the step's directory is durable too.
func (s *DirStore) Drop(step int) error {
	dir := s.stepDir(step)
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil && !os.IsNotExist(err) {
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
		if _, err := os.Stat(filepath.Join(s.dir, name, "MANIFEST")); err != nil {
			continue // uncommitted step: invisible
		}
		steps = append(steps, st)
	}
	sort.Ints(steps)
	return steps, nil
}

// --- format ---------------------------------------------------------

// A step's manifest is little-endian 64-bit words:
//
//	magic, version, step, states m, mixer history h,
//	the global grid (3), the spacing (float64 bits), the boundary,
//	per writing rank: its box's offset (3) and extents (3), its band
//	slice [lo, hi) and its shard's CRC64,
//	a CRC64 of every word before it.
//
// A shard is its payload alone, in the same words: the m Ritz values
// (they bound the next iteration's filter) and the mixer's h x h Gram
// matrix by rows, then the interior rows of each field, x-major over the
// box: density, v_H, psi(lo) .. psi(hi-1), n_in,0 .. n_in,h-1,
// R_0 .. R_h-1. Its byte count and its CRC64 in the manifest frame it.
const (
	manifestMagic = 0x4750434b5f763100 // "GPCK_v1\0"
	// manifestVersion 5: the manifest is the step's only header. Earlier
	// versions, whose shards carried headers, are refused.
	manifestVersion = 5

	manifestHeadWords  = 10 // magic through boundary
	manifestEntryWords = 9  // box offset and extents, band slice, CRC64
)

// ErrCheckpointCorrupt wraps checksum and format failures detected when
// reading a manifest or a shard back.
var ErrCheckpointCorrupt = errors.New("gpaw: corrupt checkpoint shard")

// ErrCheckpointUnreadable wraps a store's failure to hand back a
// committed step's manifest or one of its shards, or to list the
// committed steps.
var ErrCheckpointUnreadable = errors.New("gpaw: unreadable checkpoint")

// ErrCheckpointUnwritable wraps a store's failure to take a rank's shard
// of a step or to commit the step's manifest.
var ErrCheckpointUnwritable = errors.New("gpaw: unwritable checkpoint")

var crcTable = crc64.MakeTable(crc64.ECMA)

// manifest is the commit record of a checkpoint step and its only
// header: the shape of the SCF state, the system it belongs to, and what
// each rank's shard covers beside its checksum, so a restoring rank can
// pick the shards it re-tiles before reading any.
type manifest struct {
	Step    int // the SCF iteration
	States  int // m, the global state count (the eigensolver's guard included)
	Hist    int // the Pulay mixer's live pairs, oldest first
	Global  topology.Dims
	Spacing float64
	BC      Boundary
	Shards  []manifestShard // by writing rank
}

// manifestShard is one shard's entry in its step's manifest.
type manifestShard struct {
	Off   topology.Coord
	Local topology.Dims
	Bands [2]int // the band slice [lo, hi)
	Sum   uint64 // the shard's CRC64
}

// encode returns the manifest's encoding, CRC64 trailer included.
func (man *manifest) encode() []byte {
	buf := make([]byte, 0, 8*(manifestHeadWords+manifestEntryWords*len(man.Shards)+1))
	put := func(vs ...int) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	put(manifestMagic, manifestVersion, man.Step, man.States, man.Hist, man.Global[0], man.Global[1], man.Global[2],
		int(math.Float64bits(man.Spacing)), int(man.BC))
	for _, e := range man.Shards {
		put(e.Off[0], e.Off[1], e.Off[2], e.Local[0], e.Local[1], e.Local[2], e.Bands[0], e.Bands[1], int(e.Sum))
	}
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
}

// decodeManifest checksum-verifies an encoded manifest and reads it. The
// step is held to a plausible grid, state count and history, and every
// entry to a box inside the grid and a band slice inside the states, so
// a decoded manifest frames its shards exactly as readShard trusts them.
func decodeManifest(raw []byte) (*manifest, error) {
	n := len(raw)/8 - manifestHeadWords - 1 // the entries' words
	if len(raw)%8 != 0 || n < manifestEntryWords || n%manifestEntryWords != 0 {
		return nil, fmt.Errorf("%w: manifest of %d bytes", ErrCheckpointCorrupt, len(raw))
	}
	body := raw[:len(raw)-8]
	if got, sum := crc64.Checksum(body, crcTable), binary.LittleEndian.Uint64(raw[len(body):]); got != sum {
		return nil, fmt.Errorf("%w: manifest checksum %016x != recorded %016x", ErrCheckpointCorrupt, got, sum)
	}
	word := func() int {
		v := int(binary.LittleEndian.Uint64(body))
		body = body[8:]
		return v
	}
	if m := word(); m != manifestMagic {
		return nil, fmt.Errorf("%w: manifest: bad magic %016x", ErrCheckpointCorrupt, uint64(m))
	}
	if v := word(); v != manifestVersion {
		return nil, fmt.Errorf("%w: manifest: unsupported version %d", ErrCheckpointCorrupt, v)
	}
	man := &manifest{Step: word(), States: word(), Hist: word(), Global: topology.Dims{word(), word(), word()},
		Spacing: math.Float64frombits(uint64(word())), BC: Boundary(word()), Shards: make([]manifestShard, n/manifestEntryWords)}
	ok := man.States >= 1 && man.Hist >= 0 && man.Hist <= pulayHistory
	for d := range 3 {
		ok = ok && man.Global[d] >= 1 && man.Global[d] <= 1<<20
	}
	if !ok {
		return nil, fmt.Errorf("%w: manifest of %d states and %d mixer pairs over %v", ErrCheckpointCorrupt, man.States, man.Hist, man.Global)
	}
	for r := range man.Shards {
		e := &man.Shards[r]
		e.Off, e.Local = topology.Coord{word(), word(), word()}, topology.Dims{word(), word(), word()}
		e.Bands, e.Sum = [2]int{word(), word()}, uint64(word())
		ok := 0 <= e.Bands[0] && e.Bands[0] <= e.Bands[1] && e.Bands[1] <= man.States
		for d := range 3 {
			ok = ok && e.Off[d] >= 0 && e.Local[d] >= 1 && e.Local[d] <= man.Global[d]-e.Off[d]
		}
		if !ok {
			return nil, fmt.Errorf("%w: manifest entry %d covers %v at %v, band slice [%d, %d), in %v with %d states",
				ErrCheckpointCorrupt, r, e.Local, e.Off, e.Bands[0], e.Bands[1], man.Global, man.States)
		}
	}
	return man, nil
}

// appendShard appends a shard's payload to buf: the scalars, then each
// field's interior rows, x-major over its box. buf grows at most once.
func appendShard(buf []byte, scalars []float64, fields []*grid.Grid) []byte {
	words := len(scalars)
	for _, f := range fields {
		words += f.Points()
	}
	buf = appendRow(slices.Grow(buf, 8*words), scalars)
	for _, f := range fields {
		data := f.Data()
		for i := 0; i < f.Nx; i++ {
			for j := 0; j < f.Ny; j++ {
				row := f.Index(i, j, 0)
				buf = appendRow(buf, data[row:row+f.Nz])
			}
		}
	}
	return buf
}

// appendRow appends src's little-endian encoding, 8 bytes per value, to
// buf, which must have the room. getRow decodes one. Neither checks
// bounds per value.
func appendRow(buf []byte, src []float64) []byte {
	at := len(buf)
	buf = buf[:at+8*len(src)]
	dst := buf[at:]
	for i := 0; i < len(src) && len(dst) >= 8; i++ {
		binary.LittleEndian.PutUint64(dst[:8], math.Float64bits(src[i]))
		dst = dst[8:]
	}
	return buf
}

func getRow(dst []float64, src []byte) {
	for i := 0; i < len(dst) && len(src) >= 8; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[:8]))
		src = src[8:]
	}
}

// shardView is a verified shard read in place under its manifest entry:
// its scalars and fields left in the bytes they arrived in.
type shardView struct {
	manifestShard
	data []byte
	ns   int // the scalars ahead of the fields
}

// scalars decodes len(dst) scalars, from the first-th on, into dst.
func (v *shardView) scalars(dst []float64, first int) { getRow(dst, v.data[8*first:]) }

// fieldBytes returns field i's values, x-major over the shard's box.
func (v *shardView) fieldBytes(i int) []byte {
	n := 8 * v.Local.Count()
	at := 8*v.ns + i*n
	return v.data[at : at+n]
}

func readManifest(st Store, step int) (*manifest, error) {
	raw, err := st.Manifest(step)
	if err != nil {
		return nil, fmt.Errorf("%w: step %d manifest: %w", ErrCheckpointUnreadable, step, err)
	}
	man, err := decodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("step %d: %w", step, err)
	}
	if man.Step != step {
		return nil, fmt.Errorf("%w: step %d's manifest is step %d's", ErrCheckpointCorrupt, step, man.Step)
	}
	return man, nil
}

// readShard fetches shard r of a committed step and holds it to its
// manifest entry: its byte count to exactly the scalars and fields the
// step's states and history and the entry's box and band slice call for,
// its CRC64 to the recorded one. The fields stay in the bytes the store
// returned.
func readShard(st Store, man *manifest, step, r int) (*shardView, error) {
	data, err := st.GetShard(step, r)
	if err != nil {
		return nil, fmt.Errorf("%w: step %d shard %d: %w", ErrCheckpointUnreadable, step, r, err)
	}
	v := &shardView{manifestShard: man.Shards[r], data: data, ns: man.States + man.Hist*man.Hist}
	// The sizes are compared divided, and the state count before the
	// scalar count it is part of, so no forged count can overflow.
	words, n, nf := len(data)/8, v.Local.Count(), 2+v.Bands[1]-v.Bands[0]+2*man.Hist
	if len(data)%8 != 0 || man.States > words-man.Hist*man.Hist || (words-v.ns)%n != 0 || (words-v.ns)/n != nf {
		return nil, fmt.Errorf("%w: step %d shard %d holds %d bytes, not %d states, %d mixer pairs and %d fields of box %v",
			ErrCheckpointCorrupt, step, r, len(data), man.States, man.Hist, nf, v.Local)
	}
	if got := crc64.Checksum(data, crcTable); got != v.Sum {
		return nil, fmt.Errorf("%w: step %d shard %d checksum %016x != recorded %016x", ErrCheckpointCorrupt, step, r, got, v.Sum)
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
	// rejected by CRC validation.
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

// save writes one rank's shard, ck.buf, and commits the step's manifest,
// man with its entries, at world rank 0. The checksum travels through the
// float64 collective transport bit-exactly (Float64frombits/Float64bits
// round-trip every uint64), and the status, box and band slice beside it
// as integral values.
func (ck *Checkpointer) save(d *Dist, man *manifest, lo, hi int) error {
	sp := d.Cart.TraceRank().Begin("ckpt.save", trace.KindRegion)
	defer sp.End()
	rank, off, local := d.World.Rank(), d.Offset(), d.LocalDims()
	err := ck.Store.PutShard(man.Step, rank, ck.buf)
	in := [commitWords]float64{0, math.Float64frombits(crc64.Checksum(ck.buf, crcTable)),
		float64(off[0]), float64(off[1]), float64(off[2]),
		float64(local[0]), float64(local[1]), float64(local[2]),
		float64(lo), float64(hi)}
	if err != nil {
		in[0], err = 1, fmt.Errorf("shard %d: %w", rank, err)
	}
	var out []float64
	if rank == 0 {
		out = make([]float64, commitWords*d.World.Size())
	}
	d.World.Gather(0, in[:], out)
	if rank == 0 && err == nil {
		if err = ck.commit(man, out); err != nil {
			in[0] = 1
		}
	}
	if d.verdict(int(in[0])) == 0 {
		return nil
	}
	if err == nil {
		err = errors.New("another rank's shard or the commit failed")
	}
	return fmt.Errorf("%w: step %d: %w", ErrCheckpointUnwritable, man.Step, err)
}

// commit lists the gathered words as the manifest's entries and, if
// every shard was stored, commits it and prunes. It runs at world rank 0.
func (ck *Checkpointer) commit(man *manifest, words []float64) error {
	man.Shards = make([]manifestShard, len(words)/commitWords)
	for r := range man.Shards {
		w := words[r*commitWords:][:commitWords]
		if w[0] != 0 {
			return fmt.Errorf("rank %d's shard was not stored", r)
		}
		e := &man.Shards[r]
		e.Sum, e.Bands = math.Float64bits(w[1]), [2]int{int(w[8]), int(w[9])}
		for k := range 3 {
			e.Off[k], e.Local[k] = int(w[2+k]), int(w[5+k])
		}
	}
	if err := ck.Store.Commit(man.Step, man.encode()); err != nil {
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
	steps, err := ck.Store.Steps()
	if err != nil {
		return
	}
	for _, st := range steps[:max(0, len(steps)-ck.Keep)] {
		// Best-effort: a failed drop leaves an extra generation, which
		// is safe.
		_ = ck.Store.Drop(st)
	}
}

// saveSCF snapshots the SCF state after iteration it: mixed density,
// Hartree potential (the next solve's initial guess; the effective
// potential is a pointwise function of the two and the external one,
// rebuilt at resume), this band group's wave-function slice, all m Ritz
// values, and the Pulay mixer's ring and Gram matrix.
func (ck *Checkpointer) saveSCF(s *SCF, it, m int, eig []float64, psis []*grid.Grid, n, vh *grid.Grid, mix *pulayMixer) error {
	d := s.D
	lo, hi := d.BandRange(m)
	h := mix.hist
	scalars := make([]float64, 0, m+h*h)
	scalars = append(scalars, eig...)
	for i := range h {
		scalars = append(scalars, mix.gram[i][:h]...)
	}
	fields := make([]*grid.Grid, 0, 2+len(psis)+2*h)
	fields = append(append(append(append(fields, n, vh), psis...), mix.in[:h]...), mix.res[:h]...)
	ck.buf = appendShard(ck.buf[:0], scalars, fields)
	return ck.save(d, &manifest{Step: it, States: m, Hist: h, Global: d.Decomp.Global, Spacing: s.Sys.Spacing, BC: s.Sys.BC}, lo, hi)
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
	spacing   float64 // the system's, which Resume holds its own to
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
// v_H and mixer ring every band group holds. It checks each against its
// manifest entry and copies the intersection with its sub-domain
// straight from the bytes into its grids — gather-free, exactly like a
// grid.Redistribute whose source layout happens to live in the store.
//
// Each rank sees only the faults of the shards it fetched, so the ranks
// end with one world verdict, and every rank fails alike: first if any
// rank found a step it cannot take (another grid or boundary), else with
// ErrCheckpointCorrupt if any found the manifest or a shard corrupt,
// else with ErrCheckpointUnreadable if any could not read the manifest
// or a shard. A rank returns its own error if it is of the agreed class,
// so every rank's error is of that class.
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
	if man.Global != d.Decomp.Global || man.BC != d.BC {
		return nil, fmt.Errorf("gpaw: checkpoint step %d is of a %v %v grid, this Dist of a %v %v one",
			step, man.BC, man.Global, d.BC, d.Decomp.Global)
	}
	off, local := d.Offset(), d.LocalDims()
	myLo, myHi := d.BandRange(man.States)
	fetches := man.fetchSet(off, local, myLo, myHi)
	if len(fetches) == 0 {
		return nil, fmt.Errorf("%w: step %d: no shard covers the sub-domain %v at %v", ErrCheckpointCorrupt, step, local, off)
	}
	rs := &SCFRestart{Iteration: man.Step, States: man.States, Eig: make([]float64, man.States),
		N: d.NewLocalGrid(), VHartree: d.NewLocalGrid(), Psis: make([]*grid.Grid, myHi-myLo), spacing: man.Spacing}
	for i := range rs.Psis {
		rs.Psis[i] = d.NewLocalGrid()
	}
	mix := &rs.mix
	mix.hist = man.Hist
	for h := range mix.hist {
		mix.in[h], mix.res[h] = grid.NewDims(local, 0), grid.NewDims(local, 0)
	}
	for k, f := range fetches {
		v, err := readShard(st, man, step, f.rank)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			v.scalars(rs.Eig, 0)
			for h := range mix.hist {
				v.scalars(mix.gram[h][:mix.hist], man.States+h*mix.hist)
			}
		}
		lo, dims, _ := grid.IntersectBox(v.Off, v.Local, off, local)
		for s := max(v.Bands[0], myLo); s < min(v.Bands[1], myHi); s++ {
			copyShardBox(rs.Psis[s-myLo], off, v, 2+s-v.Bands[0], lo, dims)
		}
		if !f.common {
			continue
		}
		copyShardBox(rs.N, off, v, 0, lo, dims)
		copyShardBox(rs.VHartree, off, v, 1, lo, dims)
		ring := 2 + v.Bands[1] - v.Bands[0]
		for h := range mix.hist {
			copyShardBox(mix.in[h], off, v, ring+h, lo, dims)
			copyShardBox(mix.res[h], off, v, ring+mix.hist+h, lo, dims)
		}
	}
	return rs, nil
}
