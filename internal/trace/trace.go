// Package trace ingests communication profiles — the role the IPM profiling
// tool plays in the paper's methodology (§II-A). A profile is a plain-text
// record of an application's iterative communication: point-to-point
// message totals plus collective operations with a named implementation,
// which expand into point-to-point patterns via internal/collective
// (the §VI extension).
//
// Format (one record per line, '#' comments):
//
//	procs <n>
//	p2p <src> <dst> <bytes> [count]
//	coll <implementation> <bytes> all
//	coll <implementation> <bytes> <rank> <rank> ...
//
// Implementations are the internal/collective op names, e.g.
// "allreduce-recursive-doubling" or "allgather-dissemination".
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"rahtm/internal/collective"
	"rahtm/internal/graph"
	"rahtm/internal/telemetry"
)

// Profile expansion is metered on the process-wide telemetry registry, so
// trace-driven tools can report ingestion volume alongside routing effort.
var (
	ctrP2P   = telemetry.Default.Counter(telemetry.CtrTraceP2P)
	ctrColls = telemetry.Default.Counter(telemetry.CtrTraceColls)
)

// P2P is one aggregated point-to-point record.
type P2P struct {
	Src, Dst int
	Bytes    float64
	Count    int
}

// Coll is one collective record.
type Coll struct {
	Op    collective.Op
	Bytes float64
	Ranks []int // nil means all processes
}

// Profile is a parsed communication profile.
type Profile struct {
	Procs int
	P2Ps  []P2P
	Colls []Coll
}

// Parse reads a profile.
func Parse(r io.Reader) (*Profile, error) {
	p := &Profile{Procs: -1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		fields := strings.Fields(txt)
		switch fields[0] {
		case "procs":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: want 'procs <n>'", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 || n > math.MaxInt32 {
				return nil, fmt.Errorf("trace: line %d: bad process count %q", line, fields[1])
			}
			if p.Procs != -1 {
				return nil, fmt.Errorf("trace: line %d: duplicate procs record", line)
			}
			p.Procs = n
		case "p2p":
			if len(fields) != 4 && len(fields) != 5 {
				return nil, fmt.Errorf("trace: line %d: want 'p2p src dst bytes [count]'", line)
			}
			src, err1 := strconv.Atoi(fields[1])
			dst, err2 := strconv.Atoi(fields[2])
			bytes, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil || bytes < 0 {
				return nil, fmt.Errorf("trace: line %d: parse error in %q", line, txt)
			}
			count := 1
			if len(fields) == 5 {
				count, err1 = strconv.Atoi(fields[4])
				if err1 != nil || count < 1 {
					return nil, fmt.Errorf("trace: line %d: bad count %q", line, fields[4])
				}
			}
			if !finite(bytes * float64(count)) {
				return nil, fmt.Errorf("trace: line %d: non-finite volume in %q", line, txt)
			}
			p.P2Ps = append(p.P2Ps, P2P{Src: src, Dst: dst, Bytes: bytes, Count: count})
		case "coll":
			if len(fields) < 4 {
				return nil, fmt.Errorf("trace: line %d: want 'coll op bytes all|ranks...'", line)
			}
			bytes, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || bytes < 0 {
				return nil, fmt.Errorf("trace: line %d: bad bytes %q", line, fields[2])
			}
			if !finite(bytes) {
				return nil, fmt.Errorf("trace: line %d: non-finite volume in %q", line, txt)
			}
			c := Coll{Op: collective.Op(fields[1]), Bytes: bytes}
			if !(len(fields) == 4 && fields[3] == "all") {
				for _, f := range fields[3:] {
					rk, err := strconv.Atoi(f)
					if err != nil {
						return nil, fmt.Errorf("trace: line %d: bad rank %q", line, f)
					}
					c.Ranks = append(c.Ranks, rk)
				}
			}
			p.Colls = append(p.Colls, c)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.Procs == -1 {
		return nil, fmt.Errorf("trace: missing procs record")
	}
	for _, rec := range p.P2Ps {
		if rec.Src < 0 || rec.Src >= p.Procs || rec.Dst < 0 || rec.Dst >= p.Procs {
			return nil, fmt.Errorf("trace: p2p rank out of range in %+v", rec)
		}
	}
	return p, nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Graph expands the profile into a communication graph: p2p volumes are
// bytes*count; collectives expand according to their implementation. A
// profile whose expanded or summed volumes are not finite is an error.
func (p *Profile) Graph() (*graph.Comm, error) {
	g := graph.New(p.Procs)
	ctrP2P.Add(int64(len(p.P2Ps)))
	ctrColls.Add(int64(len(p.Colls)))
	for _, rec := range p.P2Ps {
		g.AddTraffic(rec.Src, rec.Dst, rec.Bytes*float64(rec.Count))
	}
	for _, c := range p.Colls {
		comm := collective.Communicator(c.Ranks)
		if comm == nil {
			comm = collective.World(p.Procs)
		}
		if err := collective.Add(g, c.Op, comm, c.Bytes); err != nil {
			return nil, err
		}
	}
	out := g.Build()
	var err error
	out.EachFlow(func(s, d int, vol float64) {
		if err == nil && !finite(vol) {
			err = fmt.Errorf("trace: traffic %d->%d is %v", s, d, vol)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Write serializes the profile in the Parse format.
func (p *Profile) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "procs %d\n", p.Procs); err != nil {
		return err
	}
	recs := append([]P2P(nil), p.P2Ps...)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Src != recs[j].Src {
			return recs[i].Src < recs[j].Src
		}
		return recs[i].Dst < recs[j].Dst
	})
	for _, rec := range recs {
		if _, err := fmt.Fprintf(w, "p2p %d %d %g %d\n", rec.Src, rec.Dst, rec.Bytes, rec.Count); err != nil {
			return err
		}
	}
	for _, c := range p.Colls {
		if c.Ranks == nil {
			if _, err := fmt.Fprintf(w, "coll %s %g all\n", c.Op, c.Bytes); err != nil {
				return err
			}
			continue
		}
		parts := make([]string, len(c.Ranks))
		for i, r := range c.Ranks {
			parts[i] = strconv.Itoa(r)
		}
		if _, err := fmt.Fprintf(w, "coll %s %g %s\n", c.Op, c.Bytes, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

// FromGraph converts a plain communication graph into a profile (one p2p
// record per edge) — useful to round-trip measured graphs through files.
func FromGraph(g *graph.Comm) *Profile {
	p := &Profile{Procs: g.N()}
	for _, f := range g.Flows() {
		p.P2Ps = append(p.P2Ps, P2P{Src: f.Src, Dst: f.Dst, Bytes: f.Vol, Count: 1})
	}
	return p
}
