package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values when
// len(xs) is even), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile, so that the tail rests on more than a single slow op.
const tailBeyond = 10

// tail returns the highest percentile of xs with at least tailBeyond samples
// above it, as (percentile in %, value). By nearest rank that is the
// (n-tailBeyond)-th smallest sample. ok is false when there are not more
// than tailBeyond samples, so no such percentile exists.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	i := n - tailBeyond - 1
	return 100 * float64(i+1) / float64(n), sorted(xs)[i], true
}

// geomean returns the geometric mean of positive xs, or 0 when xs is empty
// or holds a value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// geomeanOfMedians is the round-robin workloads' latency summary: the
// geometric mean, over instances, of each instance's median. Every instance
// weighs the same however long it runs, and a round cut short by the time
// limit does not tilt the mix.
func geomeanOfMedians(byInstance map[string][]float64) float64 {
	meds := make([]float64, 0, len(byInstance))
	for _, xs := range byInstance {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// stretch is one part of a timed phase: its wall and process CPU time and
// the ops completed in it.
type stretch struct {
	wall, cpu time.Duration
	ops       int
}

// pooledRates returns ops per second and CPU ms per op over all stretches
// together: total ops over total wall time, total CPU time over total ops.
// The host's speed flips between a fast and a slow state many times a
// minute, so every stretch is a mix of the two. The pooled ratio moves
// smoothly with the share of slow time in a run; a median over stretches
// jumps from one state to the other whenever that share nears one half.
func pooledRates(stretches []stretch) (opsPerSec, cpuMSPerOp float64) {
	var s stretch
	for _, x := range stretches {
		s.wall += x.wall
		s.cpu += x.cpu
		s.ops += x.ops
	}
	return ratio(float64(s.ops), s.wall.Seconds()), ratio(ms(s.cpu), float64(s.ops))
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is one span's extent on a recorder timeline.
type interval struct{ lo, hi time.Duration }

// selfTime is a layer's own time: the parent interval's length minus the
// part of it that the union of its children covers. Children may overlap
// each other (parallel workers) and may stick out of the parent; only
// their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	if parent.hi <= parent.lo {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.lo > cur.hi:
			covered += cur.hi - cur.lo
			cur = c
		case c.hi > cur.hi:
			cur.hi = c.hi
		}
	}
	if len(clipped) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.hi - parent.lo - covered
}

// coverage is the share of the parent interval its children cover.
func coverage(parent interval, children []interval) float64 {
	d := parent.hi - parent.lo
	if d <= 0 {
		return 0
	}
	return 1 - float64(selfTime(parent, children))/float64(d)
}

// gate is the correctness tally behind fail_ratio. Every op is recorded
// once with the names of the checks it failed; an op failing several
// checks counts once in failed and once under each check.
type gate struct {
	attempted, failed int
	checks            []string
	byCheck           map[string]int
}

// newGate returns a tally that reports every named check, failed or not.
func newGate(checks ...string) *gate {
	g := &gate{byCheck: make(map[string]int, len(checks))}
	for _, c := range checks {
		g.byCheck[c] = 0
	}
	g.checks = checks
	return g
}

// record counts one op and the checks it failed.
func (g *gate) record(failedChecks ...string) {
	g.attempted++
	if len(failedChecks) > 0 {
		g.failed++
	}
	for _, c := range failedChecks {
		if _, known := g.byCheck[c]; !known {
			g.checks = append(g.checks, c)
		}
		g.byCheck[c]++
	}
}

// failRatio is failed ops ÷ attempted ops.
func (g *gate) failRatio() float64 { return ratio(float64(g.failed), float64(g.attempted)) }
