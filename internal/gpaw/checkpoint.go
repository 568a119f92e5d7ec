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
// system (grid, spacing, boundary), the writers' layout, which places
// every shard, and every shard's CRC64, trailed by a CRC64 of its own.
// A step becomes valid only when its manifest commits, after every
// shard is stored, so a step interrupted by the very failure it is
// meant to survive is invisible to recovery. A restart re-tiles the shards onto ANY process grid and band
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
//	the writers' domain process grid (3), of P ranks, and band groups B,
//	per writing rank, B x P of them, its shard's CRC64,
//	a CRC64 of every word before it.
//
// Writing rank r is domain rank r mod P of band group r div P, as
// NewDist lays ranks out. Its shard covers the grid.Decomp box of
// coordinate r mod P and the band slice topology.Split(m, B, r div P),
// so the boxes tile the grid and the slices the states by construction.
//
// A shard is its payload alone, in the same words: the m Ritz values
// (they bound the next iteration's filter) and the mixer's h x h Gram
// matrix by rows, then the interior rows of each field, x-major over the
// box: density, v_H, psi(lo) .. psi(hi-1), n_in,0 .. n_in,h-1,
// R_0 .. R_h-1. Its byte count and its CRC64 in the manifest frame it.
const (
	manifestMagic = 0x4750434b5f763100 // "GPCK_v1\0"
	// manifestVersion 6: the manifest places the shards by the writers'
	// layout. Earlier versions, which listed each shard's box and band
	// slice or kept headers in the shards, are refused.
	manifestVersion = 6

	manifestHeadWords = 14 // magic through band groups
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
// header: the shape of the SCF state, the system it belongs to, the
// layout that wrote it and each shard's checksum, so a restoring rank
// can pick the shards it re-tiles before reading any.
type manifest struct {
	Step    int // the SCF iteration
	States  int // m, the global state count (the eigensolver's guard included)
	Hist    int // the Pulay mixer's live pairs, oldest first
	Spacing float64
	BC      Boundary
	Layout  *grid.Decomp // the global grid over the writers' domain process grid
	Bands   int          // the writers' band groups
	Sums    []uint64     // each shard's CRC64, by writing rank
}

// shard returns the box (offset and extents) and the band slice [lo,
// hi) of writing rank r's shard.
func (man *manifest) shard(r int) (off topology.Coord, local topology.Dims, lo, hi int) {
	p := man.Layout.NumProcs()
	c := man.Layout.Procs.Coord(r % p)
	lo, n := topology.Split(man.States, man.Bands, r/p)
	return man.Layout.Offset(c), man.Layout.LocalDims(c), lo, lo + n
}

// encode returns the manifest's encoding, CRC64 trailer included.
func (man *manifest) encode() []byte {
	buf := make([]byte, 0, 8*(manifestHeadWords+len(man.Sums)+1))
	g, p := man.Layout.Global, man.Layout.Procs
	for _, v := range [manifestHeadWords]int{manifestMagic, manifestVersion, man.Step, man.States, man.Hist,
		g[0], g[1], g[2], int(math.Float64bits(man.Spacing)), int(man.BC), p[0], p[1], p[2], man.Bands} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, sum := range man.Sums {
		buf = binary.LittleEndian.AppendUint64(buf, sum)
	}
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
}

// decodeManifest checksum-verifies an encoded manifest and reads it. The
// step is held to a plausible grid, state count and history, a process
// grid grid.NewDecomp accepts for it and one checksum per writing rank,
// so a decoded manifest frames its shards exactly as readShard trusts
// them.
func decodeManifest(raw []byte) (*manifest, error) {
	n := len(raw)/8 - manifestHeadWords - 1 // the checksums
	if len(raw)%8 != 0 || n < 1 {
		return nil, fmt.Errorf("%w: manifest of %d bytes", ErrCheckpointCorrupt, len(raw))
	}
	body := raw[:len(raw)-8]
	if got, sum := crc64.Checksum(body, crcTable), binary.LittleEndian.Uint64(raw[len(body):]); got != sum {
		return nil, fmt.Errorf("%w: manifest checksum %016x != recorded %016x", ErrCheckpointCorrupt, got, sum)
	}
	word := func(i int) int { return int(binary.LittleEndian.Uint64(raw[8*i:])) }
	if m := word(0); m != manifestMagic {
		return nil, fmt.Errorf("%w: manifest: bad magic %016x", ErrCheckpointCorrupt, uint64(m))
	}
	if v := word(1); v != manifestVersion {
		return nil, fmt.Errorf("%w: manifest: unsupported version %d", ErrCheckpointCorrupt, v)
	}
	man := &manifest{Step: word(2), States: word(3), Hist: word(4), Spacing: math.Float64frombits(uint64(word(8))),
		BC: Boundary(word(9)), Bands: word(13), Sums: make([]uint64, n)}
	global, procs := topology.Dims{word(5), word(6), word(7)}, topology.Dims{word(10), word(11), word(12)}
	ok := man.States >= 1 && man.Hist >= 0 && man.Hist <= pulayHistory && man.Bands >= 1
	for d := range 3 {
		ok = ok && global[d] >= 1 && global[d] <= 1<<20
	}
	if !ok {
		return nil, fmt.Errorf("%w: manifest of %d states, %d mixer pairs and %d band groups over %v",
			ErrCheckpointCorrupt, man.States, man.Hist, man.Bands, global)
	}
	var err error
	if man.Layout, err = grid.NewDecomp(global, procs, 1); err != nil {
		return nil, fmt.Errorf("%w: manifest: %w", ErrCheckpointCorrupt, err)
	}
	// Compared divided, so no forged band-group count can overflow.
	if p := procs.Count(); n%p != 0 || n/p != man.Bands {
		return nil, fmt.Errorf("%w: manifest of %d checksums for %d band groups over %v ranks",
			ErrCheckpointCorrupt, n, man.Bands, procs)
	}
	for r := range man.Sums {
		man.Sums[r] = uint64(word(manifestHeadWords + r))
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

// shardView is a verified shard read in place: its box and band slice,
// its scalars and fields left in the bytes they arrived in.
type shardView struct {
	off    topology.Coord
	local  topology.Dims
	lo, hi int // the band slice
	data   []byte
	ns     int // the scalars ahead of the fields
}

// scalars decodes len(dst) scalars, from the first-th on, into dst.
func (v *shardView) scalars(dst []float64, first int) { getRow(dst, v.data[8*first:]) }

// fieldBytes returns field i's values, x-major over the shard's box.
func (v *shardView) fieldBytes(i int) []byte {
	n := 8 * v.local.Count()
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
// manifest: its byte count to exactly the scalars and fields the step's
// states and history and the shard's box and band slice call for, its
// CRC64 to the recorded one. The fields stay in the bytes the store
// returned.
func readShard(st Store, man *manifest, step, r int) (*shardView, error) {
	data, err := st.GetShard(step, r)
	if err != nil {
		return nil, fmt.Errorf("%w: step %d shard %d: %w", ErrCheckpointUnreadable, step, r, err)
	}
	v := &shardView{data: data, ns: man.States + man.Hist*man.Hist}
	v.off, v.local, v.lo, v.hi = man.shard(r)
	// The sizes are compared divided, and the state count before the
	// scalar count it is part of, so no forged count can overflow.
	words, n, nf := len(data)/8, v.local.Count(), 2+v.hi-v.lo+2*man.Hist
	if len(data)%8 != 0 || man.States > words-man.Hist*man.Hist || (words-v.ns)%n != 0 || (words-v.ns)/n != nf {
		return nil, fmt.Errorf("%w: step %d shard %d holds %d bytes, not %d states, %d mixer pairs and %d fields of box %v",
			ErrCheckpointCorrupt, step, r, len(data), man.States, man.Hist, nf, v.local)
	}
	if got := crc64.Checksum(data, crcTable); got != man.Sums[r] {
		return nil, fmt.Errorf("%w: step %d shard %d checksum %016x != recorded %016x", ErrCheckpointCorrupt, step, r, got, man.Sums[r])
	}
	return v, nil
}

// --- checkpointer ---------------------------------------------------

// Checkpointer periodically snapshots solver state into a Store: every
// Every-th iteration (<= 1 means every iteration), each rank writes its
// own shard, and its store status and shard checksum gather to world
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

// save writes one rank's shard, ck.buf, and commits the step's manifest,
// man with every shard's checksum, at world rank 0. Each rank gathers
// two words there: its store status (0 stored) and its shard's CRC64,
// which travels through the float64 collective transport bit-exactly
// (Float64frombits/Float64bits round-trip every uint64).
func (ck *Checkpointer) save(d *Dist, man *manifest) error {
	sp := d.Cart.TraceRank().Begin("ckpt.save", trace.KindRegion)
	defer sp.End()
	rank := d.World.Rank()
	err := ck.Store.PutShard(man.Step, rank, ck.buf)
	in := [2]float64{0, math.Float64frombits(crc64.Checksum(ck.buf, crcTable))}
	if err != nil {
		in[0], err = 1, fmt.Errorf("shard %d: %w", rank, err)
	}
	var out []float64
	if rank == 0 {
		out = make([]float64, 2*d.World.Size())
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

// commit lists the gathered checksums in the manifest and, if every
// shard was stored, commits it and prunes. It runs at world rank 0.
func (ck *Checkpointer) commit(man *manifest, words []float64) error {
	man.Sums = make([]uint64, len(words)/2)
	for r := range man.Sums {
		if words[2*r] != 0 {
			return fmt.Errorf("rank %d's shard was not stored", r)
		}
		man.Sums[r] = math.Float64bits(words[2*r+1])
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
	h := mix.hist
	scalars := make([]float64, 0, m+h*h)
	scalars = append(scalars, eig...)
	for i := range h {
		scalars = append(scalars, mix.gram[i][:h]...)
	}
	fields := make([]*grid.Grid, 0, 2+len(psis)+2*h)
	fields = append(append(append(append(fields, n, vh), psis...), mix.in[:h]...), mix.res[:h]...)
	ck.buf = appendShard(ck.buf[:0], scalars, fields)
	return ck.save(d, &manifest{Step: it, States: m, Hist: h, Spacing: s.Sys.Spacing, BC: s.Sys.BC,
		Layout: d.Decomp, Bands: d.Bands})
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

// fetchSet returns the shards a rank whose sub-domain is local at off
// and whose band slice is [lo, hi) re-tiles, box by box in the writers'
// domain rank order: for every writers' box that meets the sub-domain,
// the shards of the band groups whose slices meet [lo, hi), or, if none
// does, the box's band-group-0 shard alone.
func (man *manifest) fetchSet(off topology.Coord, local topology.Dims, lo, hi int) []fetch {
	p := man.Layout.NumProcs()
	var out []fetch
	for q := range p {
		bo, bl, _, _ := man.shard(q)
		if _, _, ok := grid.IntersectBox(bo, bl, off, local); !ok {
			continue
		}
		first := len(out)
		for r := q; r < p*man.Bands; r += p {
			if _, _, s, e := man.shard(r); max(s, lo) < min(e, hi) {
				out = append(out, fetch{r, len(out) == first})
			}
		}
		if len(out) == first {
			out = append(out, fetch{q, true})
		}
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
			at := ((lo[0]-v.off[0]+i)*v.local[1]+lo[1]-v.off[1]+j)*v.local[2] + lo[2] - v.off[2]
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
// where no band slice does, that box's band-group-0 shard, for the
// density, v_H and mixer ring every band group holds. It checks each
// against the manifest and copies the intersection with its sub-domain
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
	if man.Layout.Global != d.Decomp.Global || man.BC != d.BC {
		return nil, fmt.Errorf("gpaw: checkpoint step %d is of a %v %v grid, this Dist of a %v %v one",
			step, man.BC, man.Layout.Global, d.BC, d.Decomp.Global)
	}
	off, local := d.Offset(), d.LocalDims()
	myLo, myHi := d.BandRange(man.States)
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
	for k, f := range man.fetchSet(off, local, myLo, myHi) {
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
		lo, dims, _ := grid.IntersectBox(v.off, v.local, off, local)
		for s := max(v.lo, myLo); s < min(v.hi, myHi); s++ {
			copyShardBox(rs.Psis[s-myLo], off, v, 2+s-v.lo, lo, dims)
		}
		if !f.common {
			continue
		}
		copyShardBox(rs.N, off, v, 0, lo, dims)
		copyShardBox(rs.VHartree, off, v, 1, lo, dims)
		ring := 2 + v.hi - v.lo
		for h := range mix.hist {
			copyShardBox(mix.in[h], off, v, ring+h, lo, dims)
			copyShardBox(mix.res[h], off, v, ring+mix.hist+h, lo, dims)
		}
	}
	return rs, nil
}
