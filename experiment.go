package rahtm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"rahtm/internal/netsim"
)

// CtxProcMapper is a ProcMapper that also accepts a context, letting Solve
// and CompareCtx propagate cancellation and time budgets into a registered
// mapper's computation (rahtm-serve cancels a solve whose client goes
// away). RAHTM's Mapper runs its pipeline under the context directly; the
// baselines need not implement it (they map in microseconds).
type CtxProcMapper interface {
	ProcMapper
	MapProcsCtx(ctx context.Context, w *Workload, t *Torus, conc int) (Mapping, error)
}

// Row is one mapper's result within a Comparison.
type Row struct {
	Mapper   string
	MCL      float64       // bytes on the hottest channel
	HopBytes float64       // routing-oblivious metric, for reference
	CommTime float64       // seconds per iteration
	ExecTime float64       // seconds per iteration including computation
	RelComm  float64       // CommTime / baseline CommTime
	RelExec  float64       // ExecTime / baseline ExecTime
	MapTime  time.Duration // offline mapping computation time
	Err      string        // non-empty when the mapper failed
}

// Comparison evaluates one workload across a set of mappers — the engine
// behind Figures 8 and 10.
type Comparison struct {
	Workload     string
	Procs        int
	Topology     string
	Conc         int
	CommFraction float64 // Figure 9 calibration used for ExecTime
	Rows         []Row
}

// CompareCtx maps w onto t with every mapper (the first is the
// normalization baseline, conventionally the machine default) and
// simulates communication and execution time. Mapper failures are recorded
// per row rather than aborting the comparison.
//
// Each mapper runs as in Solve: RAHTM's pipeline and any CtxProcMapper
// receive ctx, with its telemetry scope, and can degrade or abort; the rest
// run as usual. Unlike Solve, CompareCtx does not fold a scope registry's
// counters back into the process-wide one. Hard cancellation aborts the
// comparison between mappers with ctx.Err(); deadline expiry lets it
// finish, with context-aware mappers returning degraded results.
func CompareCtx(ctx context.Context, w *Workload, t *Torus, conc int, ms []ProcMapper, model Model) (*Comparison, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("rahtm: no mappers to compare")
	}
	cmp := &Comparison{
		Workload:     w.Name,
		Procs:        w.Procs(),
		Topology:     t.String(),
		Conc:         conc,
		CommFraction: w.CommFraction,
	}
	var cal netsim.Calibration
	for i, m := range ms {
		if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		row := Row{Mapper: m.Name()}
		start := time.Now()
		mp, _, err := mapProcs(ctx, m, w, t, conc)
		row.MapTime = time.Since(start)
		if err != nil {
			row.Err = err.Error()
			cmp.Rows = append(cmp.Rows, row)
			if i == 0 {
				return nil, fmt.Errorf("rahtm: baseline mapper %s failed: %w", m.Name(), err)
			}
			continue
		}
		rep, err := CommTime(t, w.Graph, mp, model)
		if err != nil {
			row.Err = err.Error()
			cmp.Rows = append(cmp.Rows, row)
			continue
		}
		row.MCL = rep.MCL
		row.CommTime = rep.Time
		row.HopBytes = HopBytes(t, w.Graph, mp)
		if i == 0 {
			cal, err = netsim.Calibrate(rep.Time, w.CommFraction)
			if err != nil {
				return nil, fmt.Errorf("rahtm: calibration: %w", err)
			}
		}
		row.ExecTime = cal.ExecTime(rep.Time)
		cmp.Rows = append(cmp.Rows, row)
	}
	base := cmp.Rows[0]
	for i := range cmp.Rows {
		r := &cmp.Rows[i]
		if r.Err != "" {
			continue
		}
		if base.CommTime > 0 {
			r.RelComm = r.CommTime / base.CommTime
		}
		if base.ExecTime > 0 {
			r.RelExec = r.ExecTime / base.ExecTime
		}
	}
	return cmp, nil
}

// CompareSuiteCtx runs CompareCtx over several workloads and appends a
// geometric mean pseudo-comparison, mirroring the extra bar cluster of
// Figures 8/10. CompareCtx's cancellation semantics apply per workload.
func CompareSuiteCtx(ctx context.Context, ws []*Workload, t *Torus, conc int, ms []ProcMapper, model Model) ([]*Comparison, error) {
	var out []*Comparison
	for _, w := range ws {
		c, err := CompareCtx(ctx, w, t, conc, ms, model)
		if err != nil {
			return nil, fmt.Errorf("rahtm: %s: %w", w.Name, err)
		}
		out = append(out, c)
	}
	out = append(out, GeoMean(out))
	return out, nil
}

// GeoMean aggregates relative communication/execution times across
// comparisons by geometric mean (per mapper, skipping failures).
func GeoMean(cs []*Comparison) *Comparison {
	if len(cs) == 0 {
		return &Comparison{Workload: "geomean"}
	}
	agg := &Comparison{Workload: "geomean", Topology: cs[0].Topology, Conc: cs[0].Conc}
	nMap := len(cs[0].Rows)
	for i := 0; i < nMap; i++ {
		row := Row{Mapper: cs[0].Rows[i].Mapper}
		logComm, logExec := 0.0, 0.0
		n := 0
		for _, c := range cs {
			if i >= len(c.Rows) || c.Rows[i].Err != "" || c.Rows[i].RelComm <= 0 {
				continue
			}
			logComm += math.Log(c.Rows[i].RelComm)
			logExec += math.Log(c.Rows[i].RelExec)
			n++
		}
		if n > 0 {
			row.RelComm = math.Exp(logComm / float64(n))
			row.RelExec = math.Exp(logExec / float64(n))
		} else {
			row.Err = "no successful runs"
		}
		agg.Rows = append(agg.Rows, row)
	}
	return agg
}

// WriteTable renders comparisons as a Figure 8/10-style text table. mode
// selects the reported column: "exec" (Figure 8), "comm" (Figure 10), or
// "mcl".
func WriteTable(w io.Writer, cs []*Comparison, mode string) error {
	if len(cs) == 0 {
		return nil
	}
	var header string
	switch mode {
	case "exec":
		header = "relative execution time vs baseline (Figure 8)"
	case "comm":
		header = "relative communication time vs baseline (Figure 10)"
	case "mcl":
		header = "maximum channel load (bytes/iteration)"
	default:
		return fmt.Errorf("rahtm: unknown table mode %q", mode)
	}
	fmt.Fprintf(w, "%s\n", header)
	fmt.Fprintf(w, "%-14s", "mapper")
	for _, c := range cs {
		fmt.Fprintf(w, " %12s", c.Workload)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 14+13*len(cs)))
	for i := range cs[0].Rows {
		fmt.Fprintf(w, "%-14s", cs[0].Rows[i].Mapper)
		for _, c := range cs {
			if i >= len(c.Rows) {
				fmt.Fprintf(w, " %12s", "-")
				continue
			}
			r := c.Rows[i]
			if r.Err != "" {
				fmt.Fprintf(w, " %12s", "error")
				continue
			}
			switch mode {
			case "exec":
				fmt.Fprintf(w, " %11.1f%%", 100*(r.RelExec-1))
			case "comm":
				fmt.Fprintf(w, " %11.1f%%", 100*(r.RelComm-1))
			case "mcl":
				fmt.Fprintf(w, " %12.3g", r.MCL)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// CommFractionTable renders the Figure 9 analogue: the communication and
// computation share of execution per workload under the baseline mapper.
func CommFractionTable(w io.Writer, ws []*Workload, t *Torus, conc int, baseline ProcMapper, model Model) error {
	fmt.Fprintln(w, "communication vs computation fraction (Figure 9)")
	fmt.Fprintf(w, "%-10s %14s %14s\n", "benchmark", "comm fraction", "comp fraction")
	for _, wl := range ws {
		m, err := baseline.MapProcs(wl, t, conc)
		if err != nil {
			return err
		}
		rep, err := CommTime(t, wl.Graph, m, model)
		if err != nil {
			return err
		}
		cal, err := netsim.Calibrate(rep.Time, wl.CommFraction)
		if err != nil {
			return err
		}
		f := cal.CommFraction(rep.Time)
		fmt.Fprintf(w, "%-10s %13.1f%% %13.1f%%\n", wl.Name, 100*f, 100*(1-f))
	}
	return nil
}
