// Fixture for the scopeprop analyzer: a ctx-carrying function must keep
// the request's telemetry scope attached — no root contexts handed to
// callees, no unscoped evaluators. Checked under the synthetic import path
// rahtm/internal/core.
package fixture

import (
	"context"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

func helper(ctx context.Context) {}

// badRootArg detaches the callee from the request's ctx and scope.
func badRootArg(ctx context.Context) {
	helper(context.Background()) // want `scopeprop: root context passed while the caller's ctx`
	helper(context.TODO())       // want `scopeprop: root context passed while the caller's ctx`
}

// badUnscopedEvaluator builds an evaluator that bills its stencil-cache
// traffic to the process-wide counters instead of the request's registry.
func badUnscopedEvaluator(ctx context.Context, loads []float64) routing.MinimalAdaptive {
	alg := routing.MinimalAdaptive{} // want `scopeprop: unscoped routing\.MinimalAdaptive in a ctx-carrying function`
	return alg
}

// goodScoped is the clean twin: the scope rides ctx into the evaluator,
// which carries it to the solve.
func goodScoped(ctx context.Context, g *graph.Comm, t *topology.Torus, m topology.Mapping) float64 {
	alg := routing.MinimalAdaptive{}.WithScope(telemetry.ScopeFrom(ctx))
	return routing.MaxChannelLoad(t, g, m, alg)
}

// goodCtxThreaded forwards the caller's ctx, not a fresh root.
func goodCtxThreaded(ctx context.Context) {
	helper(ctx)
}

// goodNoCtx has no ctx parameter: it is a documented unscoped entry point
// (CLI, test, leaf helper) and is exempt.
func goodNoCtx(g *graph.Comm, t *topology.Torus, m topology.Mapping) float64 {
	return routing.MaxChannelLoad(t, g, m, routing.MinimalAdaptive{})
}

// allowedRoot shows a justified suppression: no diagnostic expected.
func allowedRoot(ctx context.Context) {
	//rahtm:allow(scopeprop): fixture exercises suppression on the next line
	helper(context.Background())
}
