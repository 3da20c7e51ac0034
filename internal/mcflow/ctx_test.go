package mcflow

import (
	"context"
	"errors"
	"math"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/lp"
	"rahtm/internal/topology"
)

func TestEvaluateCtxBackground(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	b := graph.New(tp.N())
	b.AddTraffic(0, 5, 10)
	g := b.Build()
	res, _, err := EvaluateWithRoutesCtx(context.Background(), tp, g, topology.Identity(tp.N()), lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MCL <= 0 || math.IsNaN(res.MCL) {
		t.Fatalf("MCL = %v", res.MCL)
	}
}

func TestEvaluateCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tp := topology.NewTorus(4, 4)
	b := graph.New(tp.N())
	b.AddTraffic(0, 5, 10)
	g := b.Build()
	_, _, err := EvaluateWithRoutesCtx(ctx, tp, g, topology.Identity(tp.N()), lp.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
