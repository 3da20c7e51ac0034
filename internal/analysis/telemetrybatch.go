package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TelemetryBatch keeps instrumentation inside the 2% overhead budget
// (DESIGN.md §8) in the hot packages (routing, core, lp, milp, hiermap,
// merge). Two shapes are flagged inside any loop:
//
//   - telemetry.Counter.Add/Inc — the shared counter costs a cross-core
//     atomic per call; hot loops must accumulate into a plain local and
//     flush once at loop/solve exit;
//   - Registry.Counter/Gauge/Histogram — a registry lookup takes the
//     registry lock; handles must be hoisted to package or solve scope.
var TelemetryBatch = &Analyzer{
	Name:   "telemetrybatch",
	Doc:    "per-iteration telemetry counter updates in hot loops; batch locally and flush at loop exit",
	Filter: IsHotPkg,
	Run:    runTelemetryBatch,
}

func runTelemetryBatch(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			checkLoopTelemetry(pass, body)
			return false // checkLoopTelemetry also covers nested loops
		})
	}
	return nil
}

func checkLoopTelemetry(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		recv := receiverNamed(fn)
		if recv == nil || recv.Obj().Pkg() == nil ||
			!strings.HasSuffix(recv.Obj().Pkg().Path(), "internal/telemetry") {
			return true
		}
		switch recv.Obj().Name() {
		case "Counter":
			if fn.Name() == "Add" || fn.Name() == "Inc" {
				pass.Reportf(call.Pos(), "telemetry.Counter.%s inside a hot loop costs an atomic per iteration; accumulate into a local and flush after the loop", fn.Name())
			}
		case "Registry":
			if fn.Name() == "Counter" || fn.Name() == "Gauge" || fn.Name() == "Histogram" {
				pass.Reportf(call.Pos(), "telemetry.Registry.%s lookup inside a loop takes the registry lock per iteration; hoist the handle out of the loop", fn.Name())
			}
		}
		return true
	})
}

// receiverNamed returns the named type of fn's receiver, unwrapping a
// pointer, or nil when fn is not a method.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
