package routing

// Displacement-stencil cache for the minimal-adaptive evaluator.
//
// The proportional-split DP distributes a flow over the minimal box
// spanned by its per-dimension travel distances. The load *fraction*
// deposited on each channel of that box depends only on the distance
// vector — it is invariant under translation of the source, under the
// travel directions (the box is mirror-symmetric), and under the topology
// the box is embedded in. buildStencil therefore runs the DP once per
// distance vector — a list of (cell offset, dimension, fraction) triples
// normalized to unit volume — and every flow is routed by translating the
// cell offsets from its source coordinate and scaling by its volume. The
// process-wide cache keeps each stencil for reuse; a box the cache cannot
// hold is routed through a stencil built for that use alone, so a flow's
// loads never depend on what the cache held. Route tables (table.go) run
// the walk once per (src, dst) pair and replay its channel ids, so a pair
// walks again only when it has no cached stencil or its table was reset.

import (
	"sync"
	"sync/atomic"

	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

const (
	// maxStencilDims bounds the dimensionality a stencil key can encode.
	maxStencilDims = 8
	// maxStencilDist bounds each per-dimension distance a key can encode.
	maxStencilDist = 255
	// maxStencilCells bounds the total cells held by the cache (~48 bytes
	// per cell); a stencil beyond the budget routes its box and is dropped.
	maxStencilCells = 1 << 20
)

// stencil is the unit-volume channel-load pattern of one displacement,
// stored flat: cell c occupies offs[c*nd : (c+1)*nd] and owns cnt[c]
// consecutive (dims, fracs) entries. Cells appear in the DP's visit order,
// so every application deposits loads in the same order, keeping results
// reproducible run to run.
//
// offs holds table indices, not raw box offsets: the entry for cell c,
// dimension d is tabOff(d)+u where u is the cell's box offset along d and
// tabOff(d) is the running sum of shape[:d]. Resolving each index through a
// per-flow channel-base table (fillChanTab) turns the per-cell node-rank
// computation — wrap, RankOf, ChannelID — into nd loads and adds.
type stencil struct {
	nd    int
	cells int
	offs  []int32
	cnt   []int32
	dims  []int8
	fracs []float64
	// shape[d] = dists[d]+1; tabLen = sum(shape) = channel-base table size.
	shape  []int32
	tabLen int
}

// fillChanTab readies sc for one walk of s over a concrete flow's box,
// source coordinate cs and travel directions dirs, and returns two of sc's
// slices. tab is the channel-base table: for dimension d and box offset
// u, tab[tabOff(d)+u] holds the channels-per-node multiple of the rank
// contribution of the wrapped coordinate cs[d] stepped u hops along
// dirs[d], so summing one entry per dimension yields node*2*nd, the base
// of the node's channel-id block. chanOff[d] is the channel-id remainder
// 2*d+dirs[d] of a hop along d.
func (s *stencil) fillChanTab(t *topology.Torus, cs, dirs []int, sc *scratch) (tab, chanOff []int) {
	tab, chanOff = sc.ints(s.tabLen), sc.chanOff
	ti := 0
	for d := 0; d < s.nd; d++ {
		chanOff[d] = 2*d + dirs[d]
		k := t.Dim(d)
		m := 2 * s.nd * t.Stride(d)
		c := cs[d]
		if dirs[d] == topology.Plus {
			for u := 0; u < int(s.shape[d]); u++ {
				v := c + u
				if v >= k {
					v -= k
				}
				tab[ti] = m * v
				ti++
			}
		} else {
			for u := 0; u < int(s.shape[d]); u++ {
				v := c - u
				if v < 0 {
					v += k
				}
				tab[ti] = m * v
				ti++
			}
		}
	}
	return tab, chanOff
}

var (
	stencilCache sync.Map // uint64 key -> *stencil
	stencilCells atomic.Int64
)

// Cache telemetry. Hits and misses fire once per routed box — the hottest
// counter in the process — so the per-box path increments plain ints on
// the evaluator's scratch, and flushStencil adds them once per AddLoads
// call or once per Table. Builds and evictions are rare and use the
// counters directly. "Builds" counts stencils built for the cache and
// "evictions" those of them discarded again: cell-budget rejections and
// lost publication races.
var (
	ctrStencilHits      = telemetry.Default.Counter(telemetry.CtrStencilHits)
	ctrStencilMisses    = telemetry.Default.Counter(telemetry.CtrStencilMisses)
	ctrStencilBuilds    = telemetry.Default.Counter(telemetry.CtrStencilBuilds)
	ctrStencilEvictions = telemetry.Default.Counter(telemetry.CtrStencilEvictions)
)

// stencilKey packs a distance vector into a cache key. ok is false when the
// vector does not fit the key encoding (too many dims or too far).
func stencilKey(dists []int) (key uint64, ok bool) {
	if len(dists) > maxStencilDims {
		return 0, false
	}
	key = uint64(len(dists))
	for _, x := range dists {
		if x > maxStencilDist {
			return 0, false
		}
		key = key<<8 | uint64(x)
	}
	return key, true
}

// stencilFor returns the stencil for dists and whether it is the cached
// one. A box the cache cannot hold — its key does not encode, or the cell
// budget refuses the stencil just built — gets a stencil built for this
// use alone, so every box is routed by the same DP whatever the cache
// happens to hold.
//
// The process-wide sync.Map is fronted by the scratch's direct-mapped
// memo. Merge scoring routes millions of boxes drawn from a few hundred
// distinct displacement vectors, so the interface-hashing lookup is
// measurable; the memo turns the common repeat into two array reads.
// Cached stencils are immutable and never unpublished, so memo entries
// cannot go stale.
func (sc *scratch) stencilFor(dists []int) (*stencil, bool) {
	key, ok := stencilKey(dists)
	if !ok {
		return buildStencil(dists), false
	}
	// Fibonacci-hash the key into a slot; keys are nonzero (they encode
	// the dimension count), so the zero-initialized memo never false-hits.
	slot := (key * 0x9e3779b97f4a7c15) >> (64 - stencilMemoBits)
	if sc.memoKey[slot] == key {
		return sc.memoVal[slot], true
	}
	s, cached := stencilForKey(key, dists)
	if cached {
		sc.memoKey[slot] = key
		sc.memoVal[slot] = s
	}
	return s, cached
}

func stencilForKey(key uint64, dists []int) (*stencil, bool) {
	if v, ok := stencilCache.Load(key); ok {
		return v.(*stencil), true
	}
	s := buildStencil(dists)
	ctrStencilBuilds.Inc()
	if stencilCells.Add(int64(s.cells)) > maxStencilCells {
		stencilCells.Add(-int64(s.cells))
		ctrStencilEvictions.Inc()
		return s, false
	}
	if prev, loaded := stencilCache.LoadOrStore(key, s); loaded {
		// Lost a build race; keep the published copy and return the cells.
		stencilCells.Add(-int64(s.cells))
		ctrStencilEvictions.Inc()
		return prev.(*stencil), true
	}
	return s, true
}

// buildStencil runs the proportional-split DP once with unit volume,
// recording per-cell fractions instead of depositing channel loads.
func buildStencil(dists []int) *stencil {
	nd := len(dists)
	total := 1
	shape := make([]int, nd)
	for d := 0; d < nd; d++ {
		shape[d] = dists[d] + 1
		total *= shape[d]
	}
	strides := make([]int, nd)
	s := 1
	for d := nd - 1; d >= 0; d-- {
		strides[d] = s
		s *= shape[d]
	}

	st := &stencil{nd: nd, shape: make([]int32, nd)}
	tabOff := make([]int32, nd)
	for d := 0; d < nd; d++ {
		st.shape[d] = int32(shape[d])
		tabOff[d] = int32(st.tabLen)
		st.tabLen += shape[d]
	}
	p := make([]float64, total)
	p[0] = 1
	u := make([]int, nd)
	for idx := 0; idx < total; idx++ {
		pu := p[idx]
		if pu == 0 {
			incOffset(u, shape)
			continue
		}
		remain := 0
		for d := 0; d < nd; d++ {
			remain += dists[d] - u[d]
		}
		if remain > 0 {
			st.cells++
			for d := 0; d < nd; d++ {
				st.offs = append(st.offs, tabOff[d]+int32(u[d]))
			}
			n := int32(0)
			inv := pu / float64(remain)
			for d := 0; d < nd; d++ {
				left := dists[d] - u[d]
				if left == 0 {
					continue
				}
				frac := inv * float64(left)
				st.dims = append(st.dims, int8(d))
				st.fracs = append(st.fracs, frac)
				p[idx+strides[d]] += frac
				n++
			}
			st.cnt = append(st.cnt, n)
		}
		incOffset(u, shape)
	}
	return st
}

// incOffset advances a mixed-radix counter (row-major, last dim fastest).
func incOffset(u, shape []int) {
	for d := len(u) - 1; d >= 0; d-- {
		u[d]++
		if u[d] < shape[d] {
			return
		}
		u[d] = 0
	}
}

// chans walks the stencil over a concrete box — source coordinate cs,
// travel directions dirs — and returns the channel id of every deposit in
// the DP's visit order: entry i receives fracs[i] of the box's volume.
// The slice is sc's storage, valid until sc's next chans call. The flow
// walk deposits through it, and Table.compile stores it.
func (s *stencil) chans(t *topology.Torus, cs, dirs []int, sc *scratch) []int32 {
	nd := s.nd
	tab, chanOff := s.fillChanTab(t, cs, dirs, sc)
	if cap(sc.chs) < len(s.fracs) {
		sc.chs = make([]int32, len(s.fracs))
	}
	out := sc.chs[:len(s.fracs)]
	ei := 0
	for c := 0; c < s.cells; c++ {
		base := c * nd
		nodeCh := 0
		for d := 0; d < nd; d++ {
			nodeCh += tab[s.offs[base+d]]
		}
		for n := s.cnt[c]; n > 0; n-- {
			out[ei] = int32(nodeCh + chanOff[s.dims[ei]])
			ei++
		}
	}
	return out
}

// scratch is one evaluator's working storage and stencil accounting. A
// Table owns one for its lifetime; MinimalAdaptive.AddLoads borrows one
// from a pool for a single call.
type scratch struct {
	cs, cd, dirs, dists, ties []int
	// tab holds a stencil's per-flow channel-base table; chanOff holds the
	// per-dimension channel-id remainder 2*d+dirs[d] for the current flow;
	// chs holds the channel ids of the last stencil walk.
	tab, chanOff []int
	chs          []int32
	// memoKey/memoVal form a direct-mapped stencil memo that short-circuits
	// the process-wide sync.Map on repeat displacement vectors.
	memoKey [stencilMemoSize]uint64
	memoVal [stencilMemoSize]*stencil
	// nhits/nmisses count the boxes routed since the last flushStencil.
	nhits, nmisses int64
}

// flushStencil adds the batched hit and miss counts to the evaluator's
// counters: a's request scope when WithScope gave it one, the process-wide
// counters otherwise.
func (sc *scratch) flushStencil(a MinimalAdaptive) {
	h, m := ctrStencilHits, ctrStencilMisses
	if a.hits != nil {
		h, m = a.hits, a.misses
	}
	if sc.nhits != 0 {
		h.Add(sc.nhits)
	}
	if sc.nmisses != 0 {
		m.Add(sc.nmisses)
	}
	sc.nhits, sc.nmisses = 0, 0
}

const (
	stencilMemoBits = 7
	stencilMemoSize = 1 << stencilMemoBits
)

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// size readies sc's per-dimension slices for an nd-dimensional topology.
func (sc *scratch) size(nd int) {
	sc.cs = grow(sc.cs, nd)
	sc.cd = grow(sc.cd, nd)
	sc.dirs = grow(sc.dirs, nd)
	sc.dists = grow(sc.dists, nd)
	sc.chanOff = grow(sc.chanOff, nd)
}

// setTies points every tied dimension of the current flow (sc.ties, from
// prepareDirs) in the direction tie combination mask selects: bit b clear
// routes tie b Plus, set routes it Minus.
func (sc *scratch) setTies(mask int) {
	for b, d := range sc.ties {
		if mask&(1<<uint(b)) == 0 {
			sc.dirs[d] = topology.Plus
		} else {
			sc.dirs[d] = topology.Minus
		}
	}
}

// ints returns an integer scratch of length n (contents undefined).
func (sc *scratch) ints(n int) []int {
	if cap(sc.tab) < n {
		sc.tab = make([]int, n)
	}
	return sc.tab[:n]
}

func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
