package workload

import (
	"fmt"

	"rahtm/internal/graph"
)

// Phase is one communication phase of a multi-phase application: a pattern
// that executes as a unit (a barrier separates phases, so their traffic
// does not overlap on the network).
type Phase struct {
	Name  string
	Graph *graph.Comm
}

// Phased is a multi-phase workload: real applications alternate distinct
// patterns (halo exchange, then transpose, then a reduction). Mapping must
// consider the union graph, but performance is governed per phase — the
// hottest link of each phase in turn, not of the summed traffic.
type Phased struct {
	Name   string
	Grid   []int
	Phases []Phase
	// CommFraction is the communication share under the default mapping.
	CommFraction float64
}

// NewPhased combines workload phases; all phases must agree on the process
// count. The grid is taken from the first phase that has one.
func NewPhased(name string, ws ...*Workload) (*Phased, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("workload: phased workload needs at least one phase")
	}
	p := &Phased{Name: name}
	procs := ws[0].Procs()
	sumFrac := 0.0
	for _, w := range ws {
		if w.Procs() != procs {
			return nil, fmt.Errorf("workload: phase %s has %d processes, want %d", w.Name, w.Procs(), procs)
		}
		p.Phases = append(p.Phases, Phase{Name: w.Name, Graph: w.Graph})
		if p.Grid == nil && w.Grid != nil {
			p.Grid = append([]int(nil), w.Grid...)
		}
		sumFrac += w.CommFraction
	}
	p.CommFraction = sumFrac / float64(len(ws))
	return p, nil
}

// Procs returns the process count.
func (p *Phased) Procs() int { return p.Phases[0].Graph.N() }

// Union returns the summed communication graph — the mapping input.
func (p *Phased) Union() *graph.Comm {
	g := graph.New(p.Procs())
	for _, ph := range p.Phases {
		ph.Graph.EachFlow(g.AddTraffic)
	}
	return g.Build()
}

// Workload converts the phased job to a plain workload over the union
// graph, for mappers that do not understand phases.
func (p *Phased) Workload() *Workload {
	return &Workload{
		Name:         p.Name,
		Grid:         append([]int(nil), p.Grid...),
		Graph:        p.Union(),
		CommFraction: p.CommFraction,
	}
}
