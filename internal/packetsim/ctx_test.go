package packetsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

// heavyTraffic builds all-to-all traffic big enough that the simulation
// spans many hundreds of cycles, so the every-512-cycles poll fires.
func heavyTraffic() (*topology.Torus, *graph.Comm, topology.Mapping) {
	t := topology.NewTorus(4, 4)
	b := graph.New(t.N())
	for i := 0; i < t.N(); i++ {
		for j := 0; j < t.N(); j++ {
			if i != j {
				b.AddTraffic(i, j, 200)
			}
		}
	}
	g := b.Build()
	return t, g, topology.Identity(t.N())
}

func TestSimulateCtxBackground(t *testing.T) {
	tp, g, m := heavyTraffic()
	res, err := SimulateCtx(context.Background(), tp, g, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 512 {
		t.Fatalf("simulation finished in %d cycles; traffic too light to exercise the ctx poll", res.Cycles)
	}
}

func TestSimulateCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tp, g, m := heavyTraffic()
	_, err := SimulateCtx(ctx, tp, g, m, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSimulateCtxDeadlineAborts(t *testing.T) {
	// Unlike the mapping pipeline, a half-run simulation has no valid
	// statistics, so deadline expiry is an error too.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	tp, g, m := heavyTraffic()
	_, err := SimulateCtx(ctx, tp, g, m, Config{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
