package analysis_test

import (
	"os/exec"
	"testing"

	"rahtm/internal/analysis"
	"rahtm/internal/analysis/analysistest"
)

// requireGo skips when the go command is unavailable (the loader shells
// out to `go list` for package enumeration and export data).
func requireGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available:", err)
	}
}

func TestDetRange(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/detrange", "rahtm/internal/graph", analysis.DetRange)
}

func TestGlobalRand(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/globalrand", "rahtm/internal/hiermap", analysis.GlobalRand)
}

func TestCtxPoll(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/ctxpoll", "rahtm/internal/lp", analysis.CtxPoll)
}

func TestFloatEq(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/floateq", "rahtm/internal/routing", analysis.FloatEq)
}

func TestTelemetryBatch(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/telemetrybatch", "rahtm/internal/routing", analysis.TelemetryBatch)
}

func TestCSRAlias(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/csralias", "rahtm/internal/merge", analysis.CSRAlias)
}

func TestGoroutineJoin(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/goroutinejoin", "rahtm/internal/serve", analysis.GoroutineJoin)
}

func TestLockDiscipline(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/lockdiscipline", "rahtm/internal/serve", analysis.LockDiscipline)
}

func TestScopeProp(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/scopeprop", "rahtm/internal/core", analysis.ScopeProp)
}

// TestAllowDirective proves the suppression contract: a directive silences
// exactly the named analyzer on its line, and unused, misnamed, and
// malformed directives are themselves reported.
func TestAllowDirective(t *testing.T) {
	requireGo(t)
	analysistest.Run(t, "testdata/allow", "rahtm/internal/hiermap", analysis.GlobalRand)
}

// TestNoStaleAllows audits every rahtm:allow directive in the module: each
// must be well-formed, name a real analyzer, and suppress at least one live
// diagnostic — and each suppression must carry its justification through to
// the suppressed record. A stale allow (the code it excused was fixed or
// moved) fails here even before the repo-clean gate does.
func TestNoStaleAllows(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	requireGo(t)
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	active, suppressed, err := analysis.RunPackagesAll(pkgs, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range active {
		if d.Analyzer == analysis.AllowName {
			t.Errorf("stale or malformed rahtm:allow directive: %s", d.String())
		}
	}
	if len(suppressed) == 0 {
		t.Error("no suppressed diagnostics found; the known-intentional allows (e.g. the merge row-cache aliasing) should appear here")
	}
	for _, d := range suppressed {
		if d.AllowReason == "" {
			t.Errorf("suppressed diagnostic lost its justification: %s", d.String())
		}
	}
}

// TestAnalyzerScopes pins each analyzer's package filter: the invariants
// are scoped to the package classes that promised them.
func TestAnalyzerScopes(t *testing.T) {
	cases := []struct {
		az   *analysis.Analyzer
		path string
		want bool
	}{
		{analysis.DetRange, "rahtm/internal/graph", true},
		{analysis.DetRange, "rahtm/internal/hiermap", true},
		{analysis.DetRange, "rahtm/internal/telemetry", false},
		{analysis.CtxPoll, "rahtm/internal/lp", true},
		{analysis.CtxPoll, "rahtm/internal/packetsim", true},
		{analysis.CtxPoll, "rahtm", false},
		{analysis.TelemetryBatch, "rahtm/internal/routing", true},
		{analysis.TelemetryBatch, "rahtm/internal/mapfile", false},
		{analysis.CSRAlias, "rahtm/internal/merge", true},
		{analysis.CSRAlias, "rahtm/internal/graph", true},
		{analysis.CSRAlias, "rahtm", false},
		{analysis.GoroutineJoin, "rahtm/internal/serve", true},
		{analysis.GoroutineJoin, "rahtm/internal/milp", true},
		{analysis.GoroutineJoin, "rahtm/internal/sched", true},
		{analysis.GoroutineJoin, "rahtm/internal/routing", false},
		{analysis.LockDiscipline, "rahtm/internal/telemetry", true},
		{analysis.LockDiscipline, "rahtm", false},
		{analysis.ScopeProp, "rahtm/internal/core", true},
		{analysis.ScopeProp, "rahtm", true},
		{analysis.ScopeProp, "rahtm/cmd/rahtm-serve", false},
	}
	for _, c := range cases {
		if got := c.az.Filter(c.path); got != c.want {
			t.Errorf("%s.Filter(%q) = %v, want %v", c.az.Name, c.path, got, c.want)
		}
	}
	if analysis.GlobalRand.Filter != nil {
		t.Error("globalrand should apply to every package")
	}
	if analysis.FloatEq.Filter != nil {
		t.Error("floateq should apply to every package")
	}
}

func TestKnownNames(t *testing.T) {
	known := analysis.KnownNames()
	for _, name := range []string{
		"detrange", "globalrand", "ctxpoll", "floateq", "telemetrybatch",
		"csralias", "goroutinejoin", "lockdiscipline", "scopeprop",
	} {
		if !known[name] {
			t.Errorf("analyzer %q missing from suite", name)
		}
	}
	if len(known) != 9 {
		t.Errorf("suite has %d analyzers, want 9", len(known))
	}
}
