// Package packetsim is a cycle-based packet-level network simulator for
// torus/mesh topologies with minimal adaptive routing. It complements the
// analytic flow-level model in internal/netsim: where netsim *assumes*
// communication time is governed by the maximum channel load, packetsim
// actually queues and forwards packets hop by hop, with per-hop adaptive
// output selection (shortest queue among minimal directions) — a faithful,
// if simplified, stand-in for BG/Q's minimal adaptive routing.
//
// RAHTM's claim rests on MCL predicting throughput; the simulator lets the
// repository validate that claim instead of assuming it (see the
// correlation tests and BenchmarkPacketSimValidation).
package packetsim

import (
	"context"
	"fmt"
	"math/rand"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

// Config tunes the simulation. The zero value is usable.
type Config struct {
	// PacketBytes is the payload per packet; flow volumes are divided into
	// ceil(vol/PacketBytes) packets (0 = 1.0, i.e. volumes are packet
	// counts).
	PacketBytes float64
	// InjectionRate is packets a node may inject per cycle (0 = 2).
	InjectionRate int
	// Seed drives stochastic tie-breaks in adaptive output selection.
	Seed int64
	// MaxCycles aborts pathological runs (0 = 10,000,000).
	MaxCycles int
}

// Result reports the outcome of a simulation.
type Result struct {
	Cycles       int     // cycles until the last packet was delivered
	Packets      int     // packets injected and delivered
	AvgLatency   float64 // mean inject-to-deliver latency in cycles
	MaxLatency   int     // worst packet latency
	MaxQueueLen  int     // deepest channel queue observed
	TotalHops    int     // hops travelled by all packets
	AvgHops      float64 // TotalHops / Packets
	MinimalRatio float64 // fraction of packets that travelled a minimal route (always 1)
}

// packet is one in-flight unit.
type packet struct {
	dst      int
	injected int
	hops     int
}

// SimulateCtx runs graph g mapped by m on topology t until every packet is
// delivered, returning timing and queueing statistics. ctx is polled every
// 512 cycles; a half-finished simulation has no meaningful statistics, so
// both hard cancellation and deadline expiry abort with ctx.Err().
func SimulateCtx(ctx context.Context, t *topology.Torus, g *graph.Comm, m topology.Mapping, cfg Config) (*Result, error) {
	if len(m) != g.N() {
		return nil, fmt.Errorf("packetsim: mapping covers %d tasks, graph has %d", len(m), g.N())
	}
	packetBytes := cfg.PacketBytes
	if packetBytes <= 0 {
		packetBytes = 1
	}
	injRate := cfg.InjectionRate
	if injRate <= 0 {
		injRate = 2
	}
	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 10_000_000
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 0x5eed))

	// Build per-node pending packet lists from the node-aggregated flows.
	pending := make([][]packet, t.N())
	totalPackets := 0
	for _, f := range g.Flows() {
		src, dst := m[f.Src], m[f.Dst]
		if src == dst {
			continue
		}
		n := int((f.Vol + packetBytes - 1) / packetBytes)
		for k := 0; k < n; k++ {
			pending[src] = append(pending[src], packet{dst: dst})
			totalPackets++
		}
	}
	// Shuffle each node's pending list so flows interleave rather than
	// draining one destination at a time.
	for n := range pending {
		rng.Shuffle(len(pending[n]), func(i, j int) {
			pending[n][i], pending[n][j] = pending[n][j], pending[n][i]
		})
	}
	res := &Result{Packets: totalPackets, MinimalRatio: 1}
	if totalPackets == 0 {
		return res, nil
	}

	queues := make([][]packet, t.NumChannels())
	qHead := make([]int, t.NumChannels())
	delivered := 0
	sumLatency := 0

	// candidate buffers reused per routing decision.
	var cand []int

	// route picks the output channel for a packet at node cur: the minimal
	// direction(s) toward dst, shortest queue first, random tie-break.
	route := func(cur int, dst int) int {
		cand = cand[:0]
		cc := t.CoordOf(cur, nil)
		cd := t.CoordOf(dst, nil)
		for d := 0; d < t.NumDims(); d++ {
			if cc[d] == cd[d] {
				continue
			}
			k := t.Dim(d)
			if !t.Wrap(d) {
				if cd[d] > cc[d] {
					cand = append(cand, t.ChannelID(cur, d, topology.Plus))
				} else {
					cand = append(cand, t.ChannelID(cur, d, topology.Minus))
				}
				continue
			}
			plus := ((cd[d]-cc[d])%k + k) % k
			minus := k - plus
			if plus <= minus {
				cand = append(cand, t.ChannelID(cur, d, topology.Plus))
			}
			if minus <= plus {
				cand = append(cand, t.ChannelID(cur, d, topology.Minus))
			}
		}
		best := -1
		bestLen := 0
		ties := 0
		for _, ch := range cand {
			l := len(queues[ch]) - qHead[ch]
			switch {
			case best == -1 || l < bestLen:
				best, bestLen, ties = ch, l, 1
			case l == bestLen:
				ties++
				if rng.Intn(ties) == 0 {
					best = ch
				}
			}
		}
		return best
	}

	pendHead := make([]int, t.N())
	for cycle := 1; cycle <= maxCycles; cycle++ {
		if cycle&511 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Phase 1: each channel delivers its head packet to the neighbor.
		type arrival struct {
			node int
			pkt  packet
		}
		var arrivals []arrival
		for ch := range queues {
			if qHead[ch] >= len(queues[ch]) {
				continue
			}
			pkt := queues[ch][qHead[ch]]
			qHead[ch]++
			node, dim, dir := t.DecodeChannel(ch)
			next, ok := t.NeighborRank(node, dim, dir)
			if !ok {
				return nil, fmt.Errorf("packetsim: packet on non-existent channel %d", ch)
			}
			pkt.hops++
			arrivals = append(arrivals, arrival{node: next, pkt: pkt})
			// Compact fully drained queues.
			if qHead[ch] == len(queues[ch]) {
				queues[ch] = queues[ch][:0]
				qHead[ch] = 0
			}
		}
		// Phase 2: route arrivals onward or deliver.
		for _, a := range arrivals {
			if a.node == a.pkt.dst {
				delivered++
				lat := cycle - a.pkt.injected
				sumLatency += lat
				if lat > res.MaxLatency {
					res.MaxLatency = lat
				}
				res.TotalHops += a.pkt.hops
				continue
			}
			ch := route(a.node, a.pkt.dst)
			queues[ch] = append(queues[ch], a.pkt)
		}
		// Phase 3: inject new packets.
		for n := 0; n < t.N(); n++ {
			for k := 0; k < injRate && pendHead[n] < len(pending[n]); k++ {
				pkt := pending[n][pendHead[n]]
				pendHead[n]++
				pkt.injected = cycle
				ch := route(n, pkt.dst)
				queues[ch] = append(queues[ch], pkt)
			}
		}
		// Track queue depth.
		for ch := range queues {
			if l := len(queues[ch]) - qHead[ch]; l > res.MaxQueueLen {
				res.MaxQueueLen = l
			}
		}
		if delivered == totalPackets {
			res.Cycles = cycle
			res.AvgLatency = float64(sumLatency) / float64(totalPackets)
			res.AvgHops = float64(res.TotalHops) / float64(totalPackets)
			return res, nil
		}
	}
	return nil, fmt.Errorf("packetsim: %d of %d packets undelivered after %d cycles",
		totalPackets-delivered, totalPackets, maxCycles)
}
