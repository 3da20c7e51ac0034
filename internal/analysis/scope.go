package analysis

import "strings"

// Package classes. Scoping is by final path element so that analysistest
// fixtures can impersonate a class by being checked under a synthetic
// import path such as "rahtm/internal/graph" (see analysistest.Run).
var (
	// deterministicPkgs must produce bit-identical output across runs
	// and across sequential/parallel schedules: map iteration feeding
	// any output (including float accumulation, which is not
	// associative) must happen in sorted key order.
	deterministicPkgs = set("graph", "core", "cluster", "merge", "hiermap", "routing")

	// solverPkgs contain the iterative solvers, whose entry points all
	// take a ctx and promise to poll it within bounded iterations.
	// serve is held to the same bar: its workers run under per-request
	// contexts and any retry/wait loop must observe them.
	solverPkgs = set("lp", "milp", "hiermap", "merge", "serve")

	// hotPkgs are on the pipeline's per-flow / per-node hot paths and
	// must keep telemetry inside the 2% overhead budget by batching
	// counter updates outside loops.
	hotPkgs = set("routing", "core", "lp", "milp", "hiermap", "merge")

	// concurrentPkgs spawn goroutines (daemon workers, the Phase 2/3
	// worker pools) and must keep every one cancellable and joined — the
	// goroutinejoin contract. milp spawns none today; it stays listed so
	// a future parallel branch-and-bound is held to the contract.
	concurrentPkgs = set("serve", "milp", "core", "merge")
)

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// IsDeterministicPkg reports whether path is in the bit-identical class.
func IsDeterministicPkg(path string) bool { return deterministicPkgs[pkgBase(path)] }

// IsSolverPkg reports whether path hosts cancellation-polling solvers.
func IsSolverPkg(path string) bool { return solverPkgs[pkgBase(path)] }

// IsHotPkg reports whether path is under the telemetry overhead budget.
func IsHotPkg(path string) bool { return hotPkgs[pkgBase(path)] }

// IsConcurrentPkg reports whether path spawns pooled goroutines held to
// the join-or-cancel contract.
func IsConcurrentPkg(path string) bool { return concurrentPkgs[pkgBase(path)] }

// IsScopedPkg reports whether path participates in per-request telemetry
// attribution: the whole internal tree plus the module root ("rahtm"),
// where Solve installs and merges the request scope.
func IsScopedPkg(path string) bool {
	return IsInternalPkg(path) || path == "rahtm"
}

// IsInternalPkg reports whether path is part of this module's internal
// tree (library code as opposed to examples or third-party mains).
func IsInternalPkg(path string) bool {
	return strings.Contains(path, "internal/") || strings.HasPrefix(path, "internal/")
}
