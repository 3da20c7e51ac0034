// Package collective synthesizes the point-to-point communication patterns
// of common MPI collective implementations. The RAHTM paper's §VI sketches
// exactly this extension: RAHTM only needs "the identities of the
// communicating processes and the (relative) amounts of communication
// between them", which depend on how each collective is implemented — a
// recursive-doubling all-gather produces a completely different pattern
// than a dissemination all-gather.
//
// Every generator adds its traffic to a graph builder, so application
// phases and collectives compose into one mapping problem. All
// volumes follow the standard cost models (see e.g. Thakur, Rabenseifner &
// Gropp, "Optimization of Collective Communication Operations in MPICH").
package collective

import (
	"fmt"
	"math/bits"

	"rahtm/internal/graph"
)

// Communicator is an ordered set of process ranks participating in a
// collective. Index within the slice is the rank inside the communicator.
type Communicator []int

// World returns the communicator over ranks 0..n-1.
func World(n int) Communicator {
	c := make(Communicator, n)
	for i := range c {
		c[i] = i
	}
	return c
}

func (c Communicator) validate(g *graph.Builder) error {
	if len(c) == 0 {
		return fmt.Errorf("collective: empty communicator")
	}
	seen := make(map[int]bool, len(c))
	for _, r := range c {
		if r < 0 || r >= g.N() {
			return fmt.Errorf("collective: rank %d outside graph of %d vertices", r, g.N())
		}
		if seen[r] {
			return fmt.Errorf("collective: duplicate rank %d", r)
		}
		seen[r] = true
	}
	return nil
}

func (c Communicator) powerOfTwo() error {
	n := len(c)
	if n&(n-1) != 0 {
		return fmt.Errorf("collective: communicator size %d is not a power of two", n)
	}
	return nil
}

// RecursiveDoublingAllGather adds the pattern of a recursive-doubling
// all-gather of msg bytes per process: log2(n) stages; at stage s, partner
// distance 2^s, exchanged volume msg * 2^s (the data gathered so far).
// Total bytes sent per process: msg * (n - 1).
func RecursiveDoublingAllGather(g *graph.Builder, c Communicator, msg float64) error {
	if err := c.validate(g); err != nil {
		return err
	}
	if err := c.powerOfTwo(); err != nil {
		return err
	}
	n := len(c)
	for s := 1; s < n; s *= 2 {
		vol := msg * float64(s)
		for i := 0; i < n; i++ {
			g.AddTraffic(c[i], c[i^s], vol)
		}
	}
	return nil
}

// DisseminationAllGather adds the dissemination (Bruck) all-gather pattern:
// ceil(log2(n)) stages; at stage s each process sends to (i + 2^s) mod n
// the min(2^s, n-2^s) blocks it holds. Works for any communicator size.
func DisseminationAllGather(g *graph.Builder, c Communicator, msg float64) error {
	if err := c.validate(g); err != nil {
		return err
	}
	n := len(c)
	for s := 1; s < n; s *= 2 {
		blocks := s
		if n-s < blocks {
			blocks = n - s
		}
		vol := msg * float64(blocks)
		for i := 0; i < n; i++ {
			g.AddTraffic(c[i], c[(i+s)%n], vol)
		}
	}
	return nil
}

// RecursiveDoublingAllReduce adds the recursive-doubling all-reduce
// pattern: log2(n) stages, full msg bytes exchanged with the partner at
// distance 2^s in every stage.
func RecursiveDoublingAllReduce(g *graph.Builder, c Communicator, msg float64) error {
	if err := c.validate(g); err != nil {
		return err
	}
	if err := c.powerOfTwo(); err != nil {
		return err
	}
	n := len(c)
	for s := 1; s < n; s *= 2 {
		for i := 0; i < n; i++ {
			g.AddTraffic(c[i], c[i^s], msg)
		}
	}
	return nil
}

// RingAllReduce adds the bandwidth-optimal ring all-reduce (reduce-scatter
// ring followed by all-gather ring): each process sends 2*(n-1)/n * msg
// bytes to its ring successor.
func RingAllReduce(g *graph.Builder, c Communicator, msg float64) error {
	if err := c.validate(g); err != nil {
		return err
	}
	n := len(c)
	if n == 1 {
		return nil
	}
	vol := 2 * float64(n-1) / float64(n) * msg
	for i := 0; i < n; i++ {
		g.AddTraffic(c[i], c[(i+1)%n], vol)
	}
	return nil
}

// BinomialBroadcast adds the binomial-tree broadcast pattern rooted at
// communicator rank 0: at stage s (from the top), every process whose
// relative rank is a multiple of 2^(k-s) and already holds the data sends
// msg bytes to the process 2^(k-s-1) away.
func BinomialBroadcast(g *graph.Builder, c Communicator, msg float64) error {
	if err := c.validate(g); err != nil {
		return err
	}
	n := len(c)
	if n == 1 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // ceil(log2(n))
	for s := k - 1; s >= 0; s-- {
		step := 1 << s
		for i := 0; i+step < n; i += 2 * step {
			g.AddTraffic(c[i], c[i+step], msg)
		}
	}
	return nil
}

// BinomialReduce adds the binomial-tree reduce pattern (the broadcast tree
// with all edges reversed) toward communicator rank 0.
func BinomialReduce(g *graph.Builder, c Communicator, msg float64) error {
	if err := c.validate(g); err != nil {
		return err
	}
	n := len(c)
	if n == 1 {
		return nil
	}
	k := bits.Len(uint(n - 1))
	for s := k - 1; s >= 0; s-- {
		step := 1 << s
		for i := 0; i+step < n; i += 2 * step {
			g.AddTraffic(c[i+step], c[i], msg)
		}
	}
	return nil
}

// PairwiseAllToAll adds the pairwise-exchange all-to-all pattern: n-1
// rounds; in round r each process exchanges msg bytes with rank i XOR r
// (power-of-two sizes) — every pair communicates exactly once per call.
func PairwiseAllToAll(g *graph.Builder, c Communicator, msg float64) error {
	if err := c.validate(g); err != nil {
		return err
	}
	if err := c.powerOfTwo(); err != nil {
		return err
	}
	n := len(c)
	for r := 1; r < n; r++ {
		for i := 0; i < n; i++ {
			g.AddTraffic(c[i], c[i^r], msg)
		}
	}
	return nil
}

// ReduceScatterRing adds a ring reduce-scatter: (n-1)/n * msg bytes to the
// ring successor, n-1 rounds collapsed into aggregate volume.
func ReduceScatterRing(g *graph.Builder, c Communicator, msg float64) error {
	if err := c.validate(g); err != nil {
		return err
	}
	n := len(c)
	if n == 1 {
		return nil
	}
	vol := float64(n-1) / float64(n) * msg
	for i := 0; i < n; i++ {
		g.AddTraffic(c[i], c[(i+1)%n], vol)
	}
	return nil
}

// Op names a collective implementation for the string-driven API.
type Op string

// Supported collective implementations.
const (
	OpAllGatherRD   Op = "allgather-recursive-doubling"
	OpAllGatherDiss Op = "allgather-dissemination"
	OpAllReduceRD   Op = "allreduce-recursive-doubling"
	OpAllReduceRing Op = "allreduce-ring"
	OpBroadcast     Op = "broadcast-binomial"
	OpReduce        Op = "reduce-binomial"
	OpAllToAll      Op = "alltoall-pairwise"
	OpReduceScatter Op = "reducescatter-ring"
)

// Add adds the traffic of the named collective to the builder.
func Add(g *graph.Builder, op Op, c Communicator, msg float64) error {
	switch op {
	case OpAllGatherRD:
		return RecursiveDoublingAllGather(g, c, msg)
	case OpAllGatherDiss:
		return DisseminationAllGather(g, c, msg)
	case OpAllReduceRD:
		return RecursiveDoublingAllReduce(g, c, msg)
	case OpAllReduceRing:
		return RingAllReduce(g, c, msg)
	case OpBroadcast:
		return BinomialBroadcast(g, c, msg)
	case OpReduce:
		return BinomialReduce(g, c, msg)
	case OpAllToAll:
		return PairwiseAllToAll(g, c, msg)
	case OpReduceScatter:
		return ReduceScatterRing(g, c, msg)
	}
	return fmt.Errorf("collective: unknown op %q", op)
}

// Ops lists every supported collective implementation.
func Ops() []Op {
	return []Op{
		OpAllGatherRD, OpAllGatherDiss, OpAllReduceRD, OpAllReduceRing,
		OpBroadcast, OpReduce, OpAllToAll, OpReduceScatter,
	}
}
