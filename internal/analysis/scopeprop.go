package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ScopeProp guards the per-request metrics partition of DESIGN.md §13.
// A request's telemetry scope rides the context from rahtm-serve's worker
// through every solver layer; TestPerRequestMetricsPartition proves the
// request-local delta plus the background registry equals the process
// totals exactly. That exactness breaks silently whenever a ctx-carrying
// function forks off work that no longer sees the scope. Two shapes are
// reported inside any function that receives a context.Context:
//
//   - context.Background()/TODO() passed as a call argument: the callee
//     runs under a fresh root, so its counters (and its cancellation)
//     detach from the request;
//   - a routing.MinimalAdaptive composite literal that is not immediately
//     given the scope via .WithScope(...): the evaluator's stencil-cache
//     hits/misses land on the process-wide counters instead of the
//     request's registry, undercounting the request's delta.
//
// Functions without a ctx parameter are exempt — they are the documented
// unscoped entry points (CLIs, tests, leaf helpers handed an evaluator).
// WithScope and ScopeFrom are nil-safe, so threading the scope in a path
// that never carries one costs nothing.
var ScopeProp = &Analyzer{
	Name:   "scopeprop",
	Doc:    "ctx-carrying functions must keep the telemetry scope attached: no root contexts, no unscoped evaluators",
	Filter: IsScopedPkg,
	Run:    runScopeProp,
}

func runScopeProp(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasCtxParam(pass, fd) {
				continue
			}
			checkScopeProp(pass, fd.Body)
		}
	}
	return nil
}

// hasCtxParam reports whether fd receives a context.Context (the vehicle
// the telemetry scope rides on — done channels carry no scope).
func hasCtxParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t := pass.TypeOf(field.Type); t != nil && t.String() == "context.Context" {
			return true
		}
	}
	return false
}

func checkScopeProp(pass *Pass, body *ast.BlockStmt) {
	// First pass: collect the MinimalAdaptive literals that are scoped —
	// immediately the receiver of a .WithScope(...) call.
	scoped := map[*ast.CompositeLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "WithScope" {
			return true
		}
		if lit, ok := unwrapCompositeLit(sel.X); ok {
			scoped[lit] = true
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isMinimalAdaptiveType(pass.TypeOf(n)) && !scoped[n] {
				pass.Reportf(n.Pos(), "unscoped routing.MinimalAdaptive in a ctx-carrying function loses the request's stencil-cache counters; chain .WithScope(telemetry.ScopeFrom(ctx))")
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if isRootCtxCall(pass, arg) {
					pass.Reportf(arg.Pos(), "root context passed while the caller's ctx (and its telemetry scope) is in hand; pass ctx through so the per-request metrics partition stays exact")
				}
			}
		}
		return true
	})
}

// unwrapCompositeLit strips parens and returns the composite literal under
// e, if any.
func unwrapCompositeLit(e ast.Expr) (*ast.CompositeLit, bool) {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.CompositeLit:
			return v, true
		default:
			return nil, false
		}
	}
}

func isMinimalAdaptiveType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "MinimalAdaptive" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/routing")
}

// isRootCtxCall reports whether e is a direct context.Background() or
// context.TODO() call.
func isRootCtxCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}
