// Package cpu probes, once at init, for the instruction-set extensions
// the repository's assembly bodies use. Every package with an AVX2 body
// reads AVX2 from here, so the host is probed once, by one routine.
package cpu
