// Package analysis statically enforces the runtime's three load-bearing
// invariant families. This file is the invariant catalogue: what each
// analyzer guards, why the invariant exists, and how to annotate code
// that satisfies an invariant in a way the analyzer cannot prove.
//
// # Invariants and their analyzers
//
// Bit-identity (detsumcheck). The differential harnesses assert that
// serial and distributed runs produce bitwise-identical results for
// every rank count, thread count and decomposition. Floating-point
// addition is not associative, so any reduction whose term order could
// vary with the partitioning must flow through detsum.Acc, the
// fixed-point deterministic accumulator. detsumcheck flags raw
// floating-point accumulation across loop iterations (`s += x[i]`,
// `s = s + e`, field accumulators) inside the guarded packages
// (internal/{gpaw,stencil,grid,pblas,core}). Element-wise updates
// (`y[i] += a*x[i]`) and straight-line sums are exempt. A sum whose
// order is provably fixed on one rank — a stencil's tap loop, a
// Cholesky elimination walking k in ascending order — is annotated
//
//	//lint:ignore detsumcheck <why the order is provably fixed>
//
// Zero allocation (hotpathalloc). The steady-state kernel, halo
// exchange and trace-emission paths are guarded by AllocsPerRun==0
// tests, but a test only sees the lines it executes. Functions on
// those paths carry the //gpaw:hotpath directive, and hotpathalloc
// statically forbids make/new/append, slice and map literals,
// &composite literals, fmt calls, allocating string conversions,
// variable-capturing closures and goroutine launches inside them.
// Amortised allocations — a pool miss, an append into a recycled
// buffer that is warm in steady state, an error constructed as the
// program dies — are justified with //lint:ignore hotpathalloc.
//
// Comm hygiene (tracepair, requestleak, rankfailerr).
//
//   - tracepair: every span opened with Begin/BeginComm/Region (or any
//     forwarder returning a trace.Span) must End on every control-flow
//     path, and span names must be compile-time string constants —
//     dynamic names would allocate on the emission path and defeat
//     profile aggregation by name.
//   - requestleak: every *mpi.Request from Isend/Irecv must reach
//     Wait, Waitall, Testall or Reclaim on every path. Storing a
//     request in a field, returning it, or handing it to another
//     function transfers responsibility; appending to a local slice is
//     tracked through to a later Waitall(reqs...) or range-Wait.
//   - rankfailerr: rank-failure errors are inspected with
//     mpi.AsRankFailure or errors.As against *mpi.ErrRankFailed, never
//     by matching the rendered message, whose wording is not part of
//     the failure contract.
//
// Lock values copied by value (mailbox structs, sync-bearing engines)
// are left to stock vet's copylocks check, which CI runs as
// `go vet ./...`.
//
// # Suppression
//
// A finding is suppressed with a staticcheck-style directive on the
// flagged line or the line above it:
//
//	//lint:ignore <analyzer>[,<analyzer>] <justification>
//
// The justification is mandatory; a directive without one is itself
// reported (analyzer name "lintdirective"). Findings in _test.go files
// are dropped wholesale: the invariants guard production code, and
// tests legitimately sum floats raw, abandon requests mid-fault and
// match error strings.
//
// # Running
//
// cmd/gpawlint bundles the suite as a multichecker:
//
//	go run ./cmd/gpawlint ./...                    # standalone
//	go vet -vettool=$(which gpawlint) ./...        # vet unit protocol
//
// CI runs both forms; TestRepoFindingFree keeps `go test` failing on
// new findings even without the vet wiring. The analysistest-style
// suites under testdata/ pin each analyzer's positive and negative
// behaviour, and testdata/seeded holds deliberately broken copies of
// real solver code that every analyzer must catch.
//
// # Why not golang.org/x/tools
//
// The framework is deliberately stdlib-only. The container this repo
// builds in has no module proxy access, so golang.org/x/tools cannot
// be pinned; rather than stub the dependency out, the subset of the
// go/analysis contract the suite needs (Analyzer, Pass, Reportf,
// analysistest-style expectation files, the go vet -vettool unit
// protocol) is implemented here on go/ast, go/types and go/importer,
// with dependencies type-checked from the compiled export data that
// `go list -export` provides offline. The analyzers are written
// against the same shapes as real go/analysis passes, so a future
// migration to the upstream framework is mechanical.
package analysis
