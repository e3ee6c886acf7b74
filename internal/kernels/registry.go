// Package kernels is the single registry of the repository's executor
// families — the kernels behind engine.Kernel — plus the measured
// auto-tuner that picks one for a batch. It replaces the hand-coded
// per-kernel selection branches that used to live in internal/mcbatch:
// dispatch sites ask the registry which kernels can serve a workload
// class and ask the tuner (or the static priors) which one should.
//
// The registry is deliberately data: adding a kernel means adding one
// Entry here and one runner in the dispatch table of the caller, and the
// differential harness (internal/kerneltest) picks it up from the same
// listing — so an executor cannot be registered without being proven
// bit-identical to the others.
package kernels

import "repro/internal/core"

// Class is a workload class: the registry's eligibility axis. A kernel
// either serves a class exactly (bit-identical to the scalar engine on
// every input of the class) or not at all.
type Class int

const (
	// Permutation batches draw each value 1..N exactly once (mcbatch's
	// default workload).
	Permutation Class = iota
	// ZeroOne batches hold only 0s and 1s (mcbatch's Spec.ZeroOne).
	ZeroOne
)

// String returns the class identifier used in tuner table keys.
func (c Class) String() string {
	if c == ZeroOne {
		return "zeroone"
	}
	return "permutation"
}

// ClassOf maps mcbatch's ZeroOne flag to a Class.
func ClassOf(zeroOne bool) Class {
	if zeroOne {
		return ZeroOne
	}
	return Permutation
}

// Entry describes one registered executor family.
type Entry struct {
	// ID is the engine-level kernel selector.
	ID core.Kernel
	// Name is the wire/CLI identifier (core.KernelName(ID)).
	Name string
	// Classes lists the workload classes the kernel serves exactly.
	Classes []Class
	// Prior orders kernels within a class when no measurement exists:
	// the eligible entry with the lowest Prior is the static default.
	// The values encode measured rankings: span over generic (the
	// engine's BenchmarkKernelSpan*/Generic*), sliced over generic (the
	// kernel history in CHANGES.md), and span over span-sharded, which
	// won at no measured side (DESIGN.md §12); a measured calibration
	// overrides them.
	Prior int
	// Doc is a one-line description for help output and docs.
	Doc string
}

// registry lists every executor family. Order is presentation order.
var registry = []Entry{
	{core.KernelSpanSharded, "span-sharded", []Class{Permutation}, 20,
		"sharded span executor; cache-blocked row shards behind a phase barrier — runs only when pinned by a hint, $MESHSORT_KERNEL or a calibration"},
	{core.KernelSpan, "span", []Class{Permutation}, 10,
		"split-parity span plans; one SWAR sweep of unit-stride runs, four 16-bit or two 32-bit cells per word"},
	{core.KernelSliced, "sliced", []Class{ZeroOne}, 10,
		"trial-sliced 0-1 kernel; 64 trials in lockstep, one bit lane each"},
	{core.KernelGeneric, "generic", []Class{Permutation, ZeroOne}, 90,
		"scalar cellwise engine; the reference every kernel is proven against"},
}

// All returns every registered executor family.
func All() []Entry {
	out := make([]Entry, len(registry))
	copy(out, registry)
	return out
}

// Eligible returns the entries serving class c, in Prior order (best
// static choice first).
func Eligible(c Class) []Entry {
	var out []Entry
	for _, e := range registry {
		if e.serves(c) {
			out = append(out, e)
		}
	}
	for i := 1; i < len(out); i++ { // registry is small; insertion sort
		for j := i; j > 0 && out[j].Prior < out[j-1].Prior; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (e Entry) serves(c Class) bool {
	for _, ec := range e.Classes {
		if ec == c {
			return true
		}
	}
	return false
}

// Supports reports whether kernel id serves class c exactly. KernelAuto
// supports nothing: it is a request to choose, not a kernel.
func Supports(id core.Kernel, c Class) bool {
	for _, e := range registry {
		if e.ID == id {
			return e.serves(c)
		}
	}
	return false
}

// Fallback returns the class's static default: the eligible kernel with
// the lowest Prior (span for permutations, sliced for 0-1 batches).
func Fallback(c Class) core.Kernel {
	if e := Eligible(c); len(e) > 0 {
		return e[0].ID
	}
	return core.KernelGeneric
}
