package routing

// Sparse delta evaluation for incremental MCL scoring.
//
// The Phase 3 beam merger scores hundreds of thousands of candidate
// placements per merge step. Scoring with dense channel-load vectors costs
// O(NumChannels) per candidate just to copy, zero and scan the vector, even
// though each candidate only perturbs the handful of channels its flows
// actually traverse — on the paper's 16,384-process configuration the dense
// bookkeeping dwarfs the routing work itself. DeltaVec is the sparse
// accumulator that removes it (the sparse quadratic-assignment framing of
// Schulz & Träff): generation-stamped so Reset is O(touched), it records
// exactly which channels a candidate's flows deposit load on. Reset over a
// base load vector (ResetOver), it also keeps the candidate's score current
// after every deposit:
//
//	Peak() = max(baseMCL, max over touched ch of base[ch] + delta[ch])
//
// which is exact for non-negative deltas because untouched channels cannot
// exceed the base maximum. Because a non-negative deposit never lowers a
// channel's total (fl(v+x) >= v for x >= 0 under round-to-nearest, and
// fl(b+v) is monotone in v), the running peak only grows, so a caller can
// stop depositing as soon as it exceeds a bound and its final value is
// bit-for-bit the max over the finished vector.
//
// Table.AddLoadsDelta replays the same compiled route, or takes the same
// flow walk, as AddLoads — same direction and tie handling, same stencil,
// same channel ids, same products in the same order — so for any flow the
// per-channel totals accumulated into a DeltaVec are bit-identical to the
// totals the dense path accumulates from a zeroed vector. Delta evaluation
// is therefore byte-exact against a full recomputation, not merely
// approximately equal.

// DeltaVec is a sparse accumulator over a dense channel space. The zero
// value is not usable; construct with NewDeltaVec. Not safe for concurrent
// use — scoring workers each own one.
type DeltaVec struct {
	vals    []float64
	stamp   []uint64
	gen     uint64
	touched []int32
	// base, when non-nil, is the load vector the running peak is tracked
	// over (see ResetOver); peak is max(baseMCL, base[ch]+vals[ch]) over
	// every deposit since, and peakCh the channel of the deposit that last
	// raised it (-1 while none has).
	base   []float64
	peak   float64
	peakCh int32
}

// NewDeltaVec returns an empty accumulator over n channels.
func NewDeltaVec(n int) *DeltaVec {
	return &DeltaVec{
		vals:   make([]float64, n),
		stamp:  make([]uint64, n),
		gen:    1,
		peakCh: -1,
	}
}

// Size returns the dense channel-space size.
func (v *DeltaVec) Size() int { return len(v.vals) }

// Reset forgets all accumulated deltas in O(1) and stops peak tracking.
func (v *DeltaVec) Reset() {
	v.gen++
	v.touched = v.touched[:0]
	v.base = nil
	v.peak = 0
	v.peakCh = -1
}

// ResetOver is Reset followed by tracking the peak over base: from here on
// Peak returns max(baseMCL, max over touched ch of base[ch]+delta[ch]),
// the MCL of base with the deltas applied when baseMCL == MCL(base). The
// peak is exact only while every deposit is non-negative. base is read,
// never written, and must stay unchanged until the next Reset.
func (v *DeltaVec) ResetOver(base []float64, baseMCL float64) {
	v.Reset()
	v.base = base
	v.peak = baseMCL
}

// Peak returns the running peak since the last ResetOver (0 after Reset).
func (v *DeltaVec) Peak() float64 { return v.peak }

// PeakChan returns the channel that holds the running peak: the channel of
// the deposit that last raised it since the last ResetOver, or -1 when the
// peak is still baseMCL (or after Reset).
func (v *DeltaVec) PeakChan() int { return int(v.peakCh) }

// Add accumulates x onto channel ch, marking it touched.
func (v *DeltaVec) Add(ch int, x float64) {
	if v.stamp[ch] != v.gen {
		v.stamp[ch] = v.gen
		v.vals[ch] = x
		v.touched = append(v.touched, int32(ch))
	} else {
		v.vals[ch] += x
	}
	if v.base != nil {
		if y := v.base[ch] + v.vals[ch]; y > v.peak {
			v.peak = y
			v.peakCh = int32(ch)
		}
	}
}

// Value returns the accumulated delta on ch (0 when untouched).
func (v *DeltaVec) Value(ch int) float64 {
	if v.stamp[ch] != v.gen {
		return 0
	}
	return v.vals[ch]
}

// NumTouched returns how many distinct channels hold deltas.
func (v *DeltaVec) NumTouched() int { return len(v.touched) }

// AddTo adds the accumulated deltas into the dense vector loads.
func (v *DeltaVec) AddTo(loads []float64) {
	for _, ch := range v.touched {
		loads[ch] += v.vals[ch]
	}
}

// Snapshot is a frozen copy of a DeltaVec's contents: parallel channel and
// value slices. Each channel appears exactly once, so replaying a snapshot
// (AddSnapshot) reproduces the accumulated per-channel totals bit-exactly
// regardless of entry order.
type Snapshot struct {
	Ch  []int32
	Val []float64
}

// Snapshot freezes the current contents into dst's storage, reusing its
// backing arrays when they are large enough, so a worker can keep one
// snapshot buffer for a whole loop. Pass the zero Snapshot for a fresh copy.
func (v *DeltaVec) Snapshot(dst Snapshot) Snapshot {
	n := len(v.touched)
	dst.Ch = append(dst.Ch[:0], v.touched...)
	if cap(dst.Val) < n {
		dst.Val = make([]float64, n)
	}
	dst.Val = dst.Val[:n]
	for i, ch := range v.touched {
		dst.Val[i] = v.vals[ch]
	}
	return dst
}

// AddSnapshot replays a snapshot into the accumulator, channel by channel.
func (v *DeltaVec) AddSnapshot(s Snapshot) {
	for i, ch := range s.Ch {
		v.Add(int(ch), s.Val[i])
	}
}
