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
// A table also keeps a screen: a channel set S of at most maxScreenChans
// channels (Screen) and, per compiled pair, the pair's deposits on S in
// replay order. AddScreenDelta replays only those, so a caller can bound
// a candidate's peak on a few channels before routing it in full
// (DESIGN.md §11, "The channel-subset prescreen"). A pair's S-list is
// built on its first screened flow after S last changed; every change to
// S drops every list at once.
//
// Only the pairs a table has seen are indexed, and its memory follows
// them: each pair record, each channel id and each screen entry is
// charged to one constant budget. On a 2-ary torus every differing
// dimension is a tie, so a pair that differs in d dimensions stores
// d*2^(2d-1) channel ids, and a table over every pair of a 2^n torus
// would hold (2n/5)*10^n: 16,000 ids on 2^4, 2.4M on 2^6, 28M on 2^7. A
// new pair that does not fit what is left of the budget resets the table
// before it is compiled, so a table holds at most a budget's worth of the
// pairs it routed last; a screen list that does not fit is not built, and
// the flow is not screened. The merger resets its tables at every unit of
// disjoint work besides, so each holds only the pairs one unit routes.

import "rahtm/internal/topology"

const (
	// maxTableChans bounds what one Table stores, in channel ids (2 bytes
	// each, 2 MB): the ids of its compiled pairs, pairCost for every pair
	// record, and listCost and screenEntryCost for every screen list and
	// each of its entries.
	maxTableChans = 1 << 20
	// pairCost charges a pair record two 24-byte index slots (the index
	// is kept at most half full) in 2-byte ids.
	pairCost = 24
	// listCost charges a 12-byte screen-list header, and screenEntryCost
	// one entry (a 2-byte channel id and a 4-byte fraction index), in
	// 2-byte ids.
	listCost        = 6
	screenEntryCost = 3
	// maxScreenChans caps the screen set S.
	maxScreenChans = 256
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
// Screen replays (AddScreenDelta) count no stencil hit: they route no
// box, only a subset of a compiled pair's deposits. Counts reach the
// evaluator's counters at Flush. A Table is not safe for concurrent use:
// each worker takes its own and flushes it when it is done.
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
	// screen holds the screen set S as one bit per channel (allocated on
	// its first channel) and nscreen its size. lists holds the screen
	// lists built for the current S, whose entries are the parallel slabs
	// sIDs (channel) and sFrac (index into the pair's stencil fractions).
	screen  []uint64
	nscreen int
	lists   []screenList
	sIDs    []uint16
	sFrac   []uint32
}

// route is one pair record: nc tie combinations, each a run of
// len(st.fracs) channel ids in ids[off:]. Its screen list is lists[sl]
// when that list carries its key: lists are dropped whenever S changes or
// the pairs are dropped, so a list with a record's key was built by that
// record for the current S. A nil st marks a pair that is walked.
type route struct {
	key uint32 // src*n+dst+1; 0 marks an empty slot
	nc  int32
	off int32
	sl  int32
	st  *stencil
}

// screenList is one pair's deposits on S, in replay order: entries
// [off, off+n) of the sIDs/sFrac slabs.
type screenList struct {
	key    uint32
	off, n int32
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

// Reset drops every compiled pair and empties the screen set, and keeps
// the index and the slabs for reuse, so the table's memory follows the
// pairs of one unit of work.
func (tb *Table) Reset() {
	tb.dropPairs()
	if tb.nscreen > 0 {
		clear(tb.screen)
		tb.nscreen = 0
	}
}

// dropPairs drops every compiled pair and every screen list and keeps the
// screen set: the budget reset of a unit that outgrows the budget.
func (tb *Table) dropPairs() {
	clear(tb.slots)
	tb.used = 0
	tb.ids = tb.ids[:0]
	tb.lists, tb.sIDs, tb.sFrac = tb.lists[:0], tb.sIDs[:0], tb.sFrac[:0]
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

// Screen adds channel ch to the screen set S and reports whether S grew:
// false when ch is already in S or S holds maxScreenChans channels. A
// change to S drops every pair's screen list and returns their budget.
func (tb *Table) Screen(ch int) bool {
	if tb.screen == nil {
		tb.screen = make([]uint64, (tb.t.NumChannels()+63)/64)
	}
	if tb.nscreen >= maxScreenChans || tb.screened(ch) {
		return false
	}
	tb.screen[ch>>6] |= 1 << (ch & 63)
	tb.nscreen++
	tb.free += listCost*len(tb.lists) + screenEntryCost*len(tb.sIDs)
	tb.lists, tb.sIDs, tb.sFrac = tb.lists[:0], tb.sIDs[:0], tb.sFrac[:0]
	return true
}

// screened reports whether channel ch is in S.
func (tb *Table) screened(ch int) bool {
	return tb.nscreen > 0 && tb.screen[ch>>6]&(1<<(ch&63)) != 0
}

// ScreenSnapshot returns the entries of s on S, in s's order, in dst's
// storage (pass the zero Snapshot for a fresh copy).
func (tb *Table) ScreenSnapshot(s, dst Snapshot) Snapshot {
	dst.Ch, dst.Val = dst.Ch[:0], dst.Val[:0]
	for i, ch := range s.Ch {
		if tb.screened(int(ch)) {
			dst.Ch = append(dst.Ch, ch)
			dst.Val = append(dst.Val, s.Val[i])
		}
	}
	return dst
}

// AddScreenDelta deposits into dv the deposits of AddLoadsDelta that land
// on S, with the same values in the same order, and reports true. A
// channel's running total depends only on the deposits to that channel,
// in their order, so after any sequence of calls dv's values on S are
// bit-identical to those of the same AddLoadsDelta calls, and its peak is
// a floor under theirs. It deposits nothing and reports false when the
// pair is walked or its screen list does not fit the budget left.
func (tb *Table) AddScreenDelta(src, dst int, vol float64, dv *DeltaVec) bool {
	if src == dst || vol == 0 {
		return true
	}
	r := tb.route(src, dst)
	if r == nil {
		return false
	}
	if int(r.sl) >= len(tb.lists) || tb.lists[r.sl].key != r.key {
		if !tb.screenList(r) {
			return false
		}
	}
	l := tb.lists[r.sl]
	if l.n == 0 {
		return true
	}
	comboVol := vol / float64(r.nc)
	fracs, fi := r.st.fracs, tb.sFrac[l.off:l.off+l.n]
	for i, ch := range tb.sIDs[l.off : l.off+l.n] {
		dv.Add(int(ch), fracs[fi[i]]*comboVol)
	}
	return true
}

// screenList builds r's screen list for the current S, and reports false,
// building nothing, when it does not fit the budget left.
func (tb *Table) screenList(r *route) bool {
	fracs := r.st.fracs
	ids := tb.ids[r.off : int(r.off)+int(r.nc)*len(fracs)]
	if listCost+screenEntryCost*len(ids) > tb.free { // it may not fit: count it first
		n := 0
		for _, ch := range ids {
			if tb.screened(int(ch)) {
				n++
			}
		}
		if listCost+screenEntryCost*n > tb.free {
			return false
		}
	}
	off := len(tb.sIDs)
	for c := ids; len(c) > 0; c = c[len(fracs):] {
		for i, ch := range c[:len(fracs)] {
			if tb.screened(int(ch)) {
				tb.sIDs = append(reserve(tb.sIDs, 1, maxTableChans/screenEntryCost), ch)
				tb.sFrac = append(reserve(tb.sFrac, 1, maxTableChans/screenEntryCost), uint32(i))
			}
		}
	}
	n := len(tb.sIDs) - off
	tb.free -= listCost + screenEntryCost*n
	r.sl = int32(len(tb.lists))
	tb.lists = append(reserve(tb.lists, 1, maxTableChans/listCost), screenList{key: r.key, off: int32(off), n: int32(n)})
	return true
}

// reserve returns s with room for n more elements. Its capacity grows as
// append's does, doubling below 256 elements and by a quarter plus 192
// above, but never past limit, the most elements the budget's charges
// allow the slab.
func reserve[T any](s []T, n, limit int) []T {
	if len(s)+n > cap(s) {
		c := 2 * cap(s)
		if cap(s) >= 256 {
			c = cap(s) + (cap(s)+768)/4
		}
		s = append(make([]T, 0, min(max(len(s)+n, c), limit)), s...)
	}
	return s
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
		tb.dropPairs()
	}
	if 2*(tb.used+1) > len(tb.slots) {
		tb.resize(2 * len(tb.slots))
	}
	r := &tb.slots[tb.find(key)]
	*r = route{key: key, nc: int32(nc), off: int32(len(tb.ids)), st: s}
	tb.used++
	tb.free -= need
	if s != nil {
		tb.ids = reserve(tb.ids, nc*len(s.fracs), maxTableChans)
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
