package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/grid"
	"repro/internal/topology"
)

// Physical constants of the SCF input, shared by the three SCF
// workloads. The trap is capped so the Hamiltonian's spectral bound
// stays kinetic-dominated and the damped eigensolver converges inside
// the 600 iterations SCF.Run allows it; the uncapped trap does not at
// 24^3.
const (
	scfSpacing   = 0.6
	scfTrapCap   = 8.0 // Hartree
	scfElectrons = 8   // closed 1s+1p shell: 4 doubly occupied states
	scfTol       = 1e-4
)

// sizes are the problem extents; -quick shrinks them so the package's
// own tests finish in seconds.
type sizes struct {
	scfN     int           // SCF grid edge
	bgpProcs topology.Dims // scf_bgp64 domain grid per band group (x2 band groups)
	fdN      int           // fd_batch grid edge
	fdGrids  int
	fdBatch  int
	fdWarm   int // untimed applications per approach
	fdTimed  int // timed applications per approach
	// probeNs is the least time a kernel probe loops for; probeCalls the
	// fixed repeat count of the collective and algebra probes, which
	// every rank must agree on; setupBatches the construct-only batches
	// timed before each operation.
	probeNs      int64
	probeCalls   int
	setupBatches int
}

var (
	fullSizes = sizes{scfN: 24, bgpProcs: topology.Dims{2, 4, 4}, fdN: 48, fdGrids: 32, fdBatch: 4, fdWarm: 5, fdTimed: 40,
		probeNs: 50e6, probeCalls: 200, setupBatches: 7}
	quickSizes = sizes{scfN: 8, bgpProcs: topology.Dims{1, 2, 2}, fdN: 16, fdGrids: 8, fdBatch: 4, fdWarm: 1, fdTimed: 2,
		probeNs: 1e6, probeCalls: 10, setupBatches: 1}
)

// inputs is everything the workloads receive: generated from the seed
// here, never read by the solvers themselves.
type inputs struct {
	seed int64
	sz   sizes
	// vext is the external potential of the SCF workloads; the Dirichlet
	// and periodic systems share it.
	vext *grid.Grid
	// fdShift and fdAmp place and scale the fd_batch source fields.
	fdShift [3]int
	fdAmp   []float64
}

// newInputs derives every workload input from seed. Seed 0 is the
// centred isotropic trap the golden energies were recorded for; other
// seeds move the trap centre by up to half a grid spacing per axis and
// each frequency by up to 0.3 %. That changes every number the solvers
// chew on while keeping the amount of work close to constant: inner
// iteration counts follow the frequency split (3 % moved allocation, a
// proxy for them, by 5 % between seeds; 0.5 % by 1.5 %), and a spread
// between seeds counts against the benchmark's own steadiness.
func newInputs(seed int64, sz sizes) *inputs {
	rng := rand.New(rand.NewSource(seed))
	jitter := func(scale float64) float64 {
		if seed == 0 {
			return 0
		}
		return scale * (2*rng.Float64() - 1)
	}
	var centre, omega [3]float64
	for d := range centre {
		centre[d] = float64(sz.scfN-1)/2 + jitter(0.5)
		omega[d] = 1 + jitter(0.003)
	}
	dims := topology.Dims{sz.scfN, sz.scfN, sz.scfN}
	v := grid.NewDims(dims, 2)
	v.FillFunc(func(i, j, k int) float64 {
		x := (float64(i) - centre[0]) * scfSpacing * omega[0]
		y := (float64(j) - centre[1]) * scfSpacing * omega[1]
		z := (float64(k) - centre[2]) * scfSpacing * omega[2]
		return math.Min(scfTrapCap, 0.5*(x*x+y*y+z*z))
	})
	in := &inputs{seed: seed, sz: sz, vext: v, fdAmp: make([]float64, sz.fdGrids)}
	for d := range in.fdShift {
		in.fdShift[d] = rng.Intn(sz.fdN)
	}
	for g := range in.fdAmp {
		in.fdAmp[g] = 0.75 + 0.5*rng.Float64()
	}
	return in
}

// system returns the SCF input under the given boundary condition.
func (in *inputs) system(bc gpaw.Boundary) gpaw.System {
	n := in.sz.scfN
	return gpaw.System{Dims: topology.Dims{n, n, n}, Spacing: scfSpacing, BC: bc,
		Vext: in.vext, Electrons: scfElectrons}
}

// fdField is the fd_batch source value of grid g at global (x, y, z).
func (in *inputs) fdField(g, x, y, z int) float64 {
	return in.fdAmp[g] * core.TestField(g, x+in.fdShift[0], y+in.fdShift[1], z+in.fdShift[2])
}

// vextHash fingerprints the generated potential so two runs can be
// seen to have used the same input.
func (in *inputs) vextHash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range in.vext.InteriorSlice() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// machineLine describes the host the wall-clock numbers belong to.
func machineLine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
