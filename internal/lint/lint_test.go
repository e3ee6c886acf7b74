package lint

import (
	"strings"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// The analyzer tests are testdata-driven: each testdata package seeds
// violations and pins the expected diagnostics with // want comments, in
// both directions (missing and unexpected findings both fail).

func TestOblivious(t *testing.T) {
	AnalyzerTest(t, Oblivious, moduleRoot(t), "testdata/oblivious")
}

func TestSchedPurity(t *testing.T) {
	AnalyzerTest(t, SchedPurity, moduleRoot(t), "testdata/schedpurity")
}

func TestDetRand(t *testing.T) {
	AnalyzerTest(t, DetRand, moduleRoot(t), "testdata/detrand")
}

func TestFloatEq(t *testing.T) {
	AnalyzerTest(t, FloatEq, moduleRoot(t), "testdata/floateq")
}

func TestHotAlloc(t *testing.T) {
	AnalyzerTest(t, HotAlloc, moduleRoot(t), "testdata/hotalloc")
}

func TestCtxFlow(t *testing.T) {
	AnalyzerTest(t, CtxFlow, moduleRoot(t), "testdata/ctxflow")
}

func TestLockGuard(t *testing.T) {
	AnalyzerTest(t, LockGuard, moduleRoot(t), "testdata/lockguard")
}

func TestLeakCheck(t *testing.T) {
	AnalyzerTest(t, LeakCheck, moduleRoot(t), "testdata/leakcheck")
}

// TestRepoClean is the acceptance gate: the repository itself must carry
// zero meshlint findings — the seeded testdata violations (skipped by
// package discovery) are the only ones allowed to exist.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package of the module; skipped with -short")
	}
	diags, err := Check(moduleRoot(t), nil, DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestTargets pins which packages each analyzer applies to, so a rename
// or a new package cannot silently drop a pass.
func TestTargets(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		want     bool
	}{
		{Oblivious, "repro/internal/sched", true},
		{Oblivious, "repro/internal/engine", true},
		{Oblivious, "repro/internal/zeroone", true},
		{Oblivious, "repro/internal/grid", false},
		{SchedPurity, "repro/internal/sched", true},
		{SchedPurity, "repro/internal/zeroone", true},
		{SchedPurity, "repro/internal/engine", false},
		{DetRand, "repro/internal/mcbatch", true},
		{DetRand, "repro/internal/rng", true},
		{DetRand, "repro/cmd/experiments", true},
		{DetRand, "repro/cmd/meshsortd", false}, // request logging and drain timeouts are wall-clock
		{FloatEq, "repro/internal/analysis", true},
		{FloatEq, "repro/internal/stats", true},
		{FloatEq, "repro/internal/experiments", true},
		{FloatEq, "repro/internal/engine", false},
		{HotAlloc, "repro/internal/engine", true},
		{HotAlloc, "repro/internal/zeroone", true},
		{HotAlloc, "repro/cmd/meshsortd", false}, // hot markers live in internal packages
		{CtxFlow, "repro/internal/serve", true},
		{CtxFlow, "repro/internal/mcbatch", true},
		{CtxFlow, "repro/cmd/meshsortd", false}, // mains may root lifecycles
		{LockGuard, "repro/internal/serve", true},
		{LockGuard, "repro/cmd/meshsortd", false},
		{LeakCheck, "repro/internal/serve", true},
		{LeakCheck, "repro/cmd/meshsortd", true},
	}
	for _, c := range cases {
		if got := c.analyzer.Targets(c.path); got != c.want {
			t.Errorf("%s.Targets(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
}

// TestDiagnosticString pins the file:line:col: analyzer: message format
// the Makefile and CI logs rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "oblivious", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: oblivious: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestResolvePattern covers the driver's pattern handling: module import
// paths, module-relative directories, and rejection of outside paths.
func TestResolvePattern(t *testing.T) {
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := resolvePattern(loader, "repro/internal/grid"); err != nil || got != "repro/internal/grid" {
		t.Errorf("import path: got %q, %v", got, err)
	}
	if got, err := resolvePattern(loader, "."); err != nil || got != "repro/internal/lint" {
		t.Errorf("directory: got %q, %v", got, err)
	}
	if _, err := resolvePattern(loader, t.TempDir()); err == nil || !strings.Contains(err.Error(), "outside module") {
		t.Errorf("outside path: got err %v, want outside-module error", err)
	}
}
