package rahtm

// Facade surface for the paper's §VI extensions implemented in this
// repository: collective-communication patterns, profile (trace) ingestion,
// per-flow routing co-optimization, and packet-level validation.

import (
	"context"
	"io"

	"rahtm/internal/collective"
	"rahtm/internal/dragonfly"
	"rahtm/internal/fattree"
	"rahtm/internal/lp"
	"rahtm/internal/mapfile"
	"rahtm/internal/mcflow"
	"rahtm/internal/packetsim"
	"rahtm/internal/trace"
	"rahtm/internal/workload"
)

// FatTree is an m-ary l-level full-bisection fat tree — the §VI
// "applicability to other topologies" extension. Its Map method runs the
// fat-tree variant of RAHTM (recursive min-cut clustering; the cube-mapping
// and rotation phases degenerate because the tree is symmetric above the
// leaves).
type FatTree = fattree.FatTree

// NewFatTree builds a fat tree with the given switch arity and level count.
var NewFatTree = fattree.New

// Fat-tree routing models.
const (
	FatTreeECMP  = fattree.ECMP
	FatTreeDModK = fattree.DModK
)

// Dragonfly is a one-level dragonfly topology (groups of fully connected
// routers, fully connected globally) — the other §VI topology target. Its
// Map method clusters tasks into routers and groups to confine traffic.
type Dragonfly = dragonfly.Dragonfly

// NewDragonfly builds a dragonfly with g groups, a routers per group,
// p hosts per router and h global links per router.
var NewDragonfly = dragonfly.New

// Dragonfly routing models.
const (
	DragonflyMinimal = dragonfly.Minimal
	DragonflyValiant = dragonfly.Valiant
)

// CollectiveOp names a collective implementation (the communication pattern
// depends on the implementation, which is why RAHTM needs to know it).
type CollectiveOp = collective.Op

// Supported collective implementations.
const (
	AllGatherRecursiveDoubling = collective.OpAllGatherRD
	AllGatherDissemination     = collective.OpAllGatherDiss
	AllReduceRecursiveDoubling = collective.OpAllReduceRD
	AllReduceRing              = collective.OpAllReduceRing
	BroadcastBinomial          = collective.OpBroadcast
	ReduceBinomial             = collective.OpReduce
	AllToAllPairwise           = collective.OpAllToAll
	ReduceScatterRing          = collective.OpReduceScatter
)

// CollectiveOps lists every supported collective implementation.
var CollectiveOps = collective.Ops

// AddCollective adds the traffic of the named collective over ranks (nil =
// all ranks of b) with msg bytes per process to the builder b.
func AddCollective(b *GraphBuilder, op CollectiveOp, ranks []int, msg float64) error {
	comm := collective.Communicator(ranks)
	if comm == nil {
		comm = collective.World(b.N())
	}
	return collective.Add(b, op, comm, msg)
}

// AllReduceJob builds a data-parallel (training-style) workload dominated
// by global all-reduces of msg bytes implemented by op.
func AllReduceJob(procs int, msg float64, op CollectiveOp) (*Workload, error) {
	return workload.AllReduceJob(procs, msg, op)
}

// Profile is a parsed communication profile (the IPM-profile stand-in).
type Profile = trace.Profile

// ParseProfile reads a plain-text communication profile: "procs <n>",
// "p2p <src> <dst> <bytes> [count]", and "coll <impl> <bytes> all|ranks..."
// records.
func ParseProfile(r io.Reader) (*Profile, error) { return trace.Parse(r) }

// ProfileFromGraph converts a communication graph into a writable profile.
var ProfileFromGraph = trace.FromGraph

// RoutingTable is the per-flow optimal split computed by the LP evaluator —
// usable as application-specific routing on hardware that supports it
// (the §VI mapping/routing co-optimization).
type RoutingTable = mcflow.RoutingTable

// OptimalSplitMCLCtx evaluates a fixed mapping with the LP routing model
// and returns the optimal MCL together with the per-flow routing table that
// achieves it. The LP aborts at its next pivot poll and returns ctx.Err()
// when ctx is canceled or its deadline expires.
func OptimalSplitMCLCtx(ctx context.Context, t *Torus, g *Comm, m Mapping) (float64, *RoutingTable, error) {
	res, rt, err := mcflow.EvaluateWithRoutesCtx(ctx, t, g, m, lp.Options{})
	if err != nil {
		return 0, nil, err
	}
	return res.MCL, rt, nil
}

// ReadMapFile parses a task-mapping file in either BG/Q format (node ranks
// or coordinate tuples), validated against t.
func ReadMapFile(r io.Reader, t *Torus) (Mapping, error) {
	return mapfile.Detect(r, t)
}

// WriteMapFileRanks writes the rank map-file format.
func WriteMapFileRanks(w io.Writer, m Mapping, header string) error {
	return mapfile.WriteRanks(w, m, header)
}

// WriteMapFileCoords writes the BG/Q coordinate map-file format.
func WriteMapFileCoords(w io.Writer, t *Torus, m Mapping, header string) error {
	return mapfile.WriteCoords(w, t, m, header)
}

// PacketSimConfig tunes the packet-level simulator.
type PacketSimConfig = packetsim.Config

// PacketSimResult reports packet-level simulation statistics.
type PacketSimResult = packetsim.Result

// PacketSimulateCtx runs the cycle-based packet-level simulator: traffic g
// mapped by m onto t, forwarded hop by hop under per-hop adaptive minimal
// routing. It validates (rather than assumes) that low MCL means fast
// communication. ctx is polled every 512 simulated cycles; any
// cancellation (including deadline expiry) aborts with ctx.Err(), since a
// half-finished simulation has no valid statistics.
func PacketSimulateCtx(ctx context.Context, t *Torus, g *Comm, m Mapping, cfg PacketSimConfig) (*PacketSimResult, error) {
	return packetsim.SimulateCtx(ctx, t, g, m, cfg)
}
