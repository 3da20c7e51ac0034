package routing

// Route tables: one worker's minimal-adaptive evaluator.
//
// A Table owns one scratch — coordinate buffers, the stencil memo and the
// stencil hit/miss counts — so a worker that routes many flows pays no
// pool round trip and no counter flush per flow; Flush adds the counts
// once.
//
// Flows are compiled per (src, dst) pair, dense (AddLoads) and sparse
// (AddLoadsDelta) alike. The annealing and exhaustive leaf solvers score
// one small cube thousands of times over a few hundred distinct pairs, and
// one scoring pass of the beam merger routes up to 627k flows over fewer
// than 1,800 pairs (the 4k halo root); a pair's first flow resolves its
// stencil, tie-combination count and channel ids, and later flows replay
// those deposits as a flat list.
//
// Only the pairs a table has seen are indexed, and its memory follows
// them: each pair record and each channel id is charged to one constant
// budget. On a 2-ary torus every differing dimension is a tie, so a pair
// that differs in d dimensions stores d*2^(2d-1) channel ids, and a table
// over every pair of a 2^n torus would hold (2n/5)*10^n: 16,000 ids on
// 2^4, 2.4M on 2^6, 28M on 2^7. A new pair that does not fit what is left
// of the budget resets the table before it is compiled, so a table holds
// at most a budget's worth of the pairs it routed last. The merger resets
// its tables at every unit of disjoint work besides, so each holds only
// the pairs one unit routes.

import "rahtm/internal/topology"

const (
	// maxTableChans bounds what one Table stores, in channel ids (2 bytes
	// each, 2 MB): the ids of its compiled pairs plus pairCost for every
	// pair record.
	maxTableChans = 1 << 20
	// pairCost charges a pair record two 24-byte index slots (the index
	// is kept at most half full) in 2-byte ids.
	pairCost = 24
	// maxTableTopoChans bounds the channel space a Table compiles for:
	// ids are uint16. A larger topology indexes nothing and every flow is
	// walked; every rung of the scale ladder fits (the 64k root has 24,576
	// channels).
	maxTableTopoChans = 1 << 16
	// minTableSlots is the index size allocated on the first flow.
	minTableSlots = 256
)

// Table is a minimal-adaptive evaluator over one topology. Its loads are
// bit-identical to MinimalAdaptive.AddLoads for either sign of vol, and
// it counts the same stencil hits and misses. On its first flow a
// (src, dst) pair is resolved exactly as the flow walk routes it: the
// stencil, the tie-combination count and the channel id of every deposit,
// tie combinations in mask order and cells in stencil order. Later flows
// replay those deposits. Pairs without a cached stencil, or with more ids
// than an empty table holds, are walked.
//
// Counts reach the evaluator's counters at Flush. A Table is not safe for
// concurrent use: each worker takes its own and flushes it when it is
// done.
type Table struct {
	t   *topology.Torus
	alg MinimalAdaptive
	n   int
	// compiles is false when t's channel ids do not fit uint16.
	compiles bool
	// slots is the open-addressing pair index (linear probing, a power of
	// two long, allocated on the first flow); used counts its records.
	slots []route
	used  int
	shift uint32 // 32 - log2(len(slots))
	// ids is the channel-id slab the compiled pairs point into.
	ids  []uint16
	free int // budget left, in ids
	sc   scratch
}

// route is one pair record: nc tie combinations, each a run of
// len(st.fracs) channel ids in ids[off:]. A nil st marks a pair that is
// walked.
type route struct {
	key uint32 // src*n+dst+1; 0 marks an empty slot
	nc  int32
	off int32
	st  *stencil
}

// Table returns an empty route table over t. Its stencil accounting goes
// where a's does: to a's scope when WithScope gave it one.
func (a MinimalAdaptive) Table(t *topology.Torus) *Table {
	tb := &Table{
		t: t, alg: a, n: t.N(),
		compiles: t.NumChannels() <= maxTableTopoChans,
		free:     maxTableChans,
	}
	tb.sc.size(t.NumDims())
	return tb
}

// Reset drops every compiled pair and keeps the index and the slab for
// reuse, so the table's memory follows the pairs of one unit of work.
func (tb *Table) Reset() {
	clear(tb.slots)
	tb.used = 0
	tb.ids = tb.ids[:0]
	tb.free = maxTableChans
}

// AddLoads routes vol units from src to dst on the table's topology into
// loads, depositing exactly what MinimalAdaptive.AddLoads deposits.
func (tb *Table) AddLoads(src, dst int, vol float64, loads []float64) {
	tb.add(src, dst, vol, loads, nil)
}

// AddLoadsDelta is AddLoads depositing into a DeltaVec: the same stencil
// decisions and counts, the same values in the same order as AddLoads
// deposits into a zeroed dense vector, so sparse and dense evaluation
// agree bit for bit. A negative vol subtracts.
func (tb *Table) AddLoadsDelta(src, dst int, vol float64, dv *DeltaVec) {
	tb.add(src, dst, vol, nil, dv)
}

// add replays the route of src→dst into loads, or into dv when dv is
// non-nil: the walk's products in the walk's order, combination by
// combination. A pair without a compiled route is walked.
func (tb *Table) add(src, dst int, vol float64, loads []float64, dv *DeltaVec) {
	if src == dst || vol == 0 {
		return
	}
	r := tb.route(src, dst)
	if r == nil {
		tb.sc.walk(tb.t, src, dst, vol, loads, dv)
		return
	}
	tb.sc.nhits += int64(r.nc)
	comboVol := vol / float64(r.nc)
	fracs := r.st.fracs
	for c := tb.ids[r.off : int(r.off)+int(r.nc)*len(fracs)]; len(c) > 0; c = c[len(fracs):] {
		c := c[:len(fracs)]
		if dv != nil {
			for i, f := range fracs {
				dv.Add(int(c[i]), f*comboVol)
			}
		} else {
			for i, f := range fracs {
				loads[c[i]] += f * comboVol
			}
		}
	}
}

// route returns the compiled record of src→dst, compiling the pair on its
// first flow, or nil when the pair is walked.
func (tb *Table) route(src, dst int) *route {
	if !tb.compiles {
		return nil
	}
	if tb.slots == nil {
		tb.resize(minTableSlots)
	}
	key := uint32(src*tb.n + dst + 1)
	r := &tb.slots[tb.find(key)]
	if r.key != key {
		r = tb.compile(key, src, dst)
	}
	if r.st == nil {
		return nil
	}
	return r
}

// find returns the slot holding key, or the empty slot where it belongs.
func (tb *Table) find(key uint32) int {
	mask := uint32(len(tb.slots) - 1)
	i := (key * 0x9e3779b9) >> tb.shift
	for tb.slots[i].key != key && tb.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return int(i)
}

// resize rebuilds the index with n slots (a power of two).
func (tb *Table) resize(n int) {
	old := tb.slots
	tb.slots = make([]route, n)
	tb.shift = 32
	for m := n; m > 1; m >>= 1 {
		tb.shift--
	}
	for _, r := range old {
		if r.key != 0 {
			tb.slots[tb.find(r.key)] = r
		}
	}
}

// compile resolves the pair src→dst with the flow walk's own steps and
// records it under key, with a nil stencil when the pair has no cached
// stencil or more ids than an empty table holds (an antipodal pair of the
// 2x2x2x2x4x4x4x4 torus would store 1.5M). A pair that does not fit the
// budget left resets the table first, so a unit of work that outgrows the
// budget keeps replaying the pairs it routed last instead of walking every
// pair it meets late.
func (tb *Table) compile(key uint32, src, dst int) *route {
	t, sc := tb.t, &tb.sc
	cs := t.CoordOf(src, sc.cs)
	cd := t.CoordOf(dst, sc.cd)
	nc := prepareDirs(t, cs, cd, sc)
	s, cached := sc.stencilFor(sc.dists)
	need := pairCost
	if cached && nc*len(s.fracs) <= maxTableChans-pairCost {
		need += nc * len(s.fracs)
	} else {
		s = nil
	}
	if need > tb.free {
		tb.Reset()
	}
	if 2*(tb.used+1) > len(tb.slots) {
		tb.resize(2 * len(tb.slots))
	}
	r := &tb.slots[tb.find(key)]
	*r = route{key: key, nc: int32(nc), off: int32(len(tb.ids)), st: s}
	tb.used++
	tb.free -= need
	if s != nil {
		for mask := 0; mask < nc; mask++ {
			sc.setTies(mask)
			for _, ch := range s.chans(t, cs, sc.dirs, sc) {
				tb.ids = append(tb.ids, uint16(ch))
			}
		}
	}
	return r
}

// Flush adds the stencil hits and misses counted since the last Flush to
// the evaluator's counters.
func (tb *Table) Flush() { tb.sc.flushStencil(tb.alg) }
