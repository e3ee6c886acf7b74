// Package gcdiag is the compiler-diagnostic half of the meshvet gate:
// where the hotalloc analyzer forbids allocation the *source* admits to,
// this package pins what the *compiler* actually proved about the kernel
// hot paths. It runs
//
//	go build -gcflags='-m=1 -d=ssa/check_bce/debug=1'
//
// over the kernel packages, parses the escape-analysis and
// bounds-check-elimination diagnostics, folds them into a per-function
// manifest for the watched files, and diffs that against the golden
// manifest committed at testdata/hotpaths.json. A refactor that
// reintroduces a bounds check in a span sweep, or makes a scratch buffer
// escape, changes the manifest and fails `make vet-perf` with the file,
// function and current line — long before a benchmark run would notice
// the regression.
//
// The diagnostics are a property of one compiler version, so the golden
// manifest records the go version it was generated with and the gate
// skips (with a notice) under any other toolchain; CI pins the matching
// version. After an intentional kernel change, regenerate with
//
//	go run ./cmd/meshlint -gcdiag-update
//
// and review the manifest diff like any other golden file.
package gcdiag

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// ManifestVersion pins the manifest schema: a reader refuses a manifest
// written by a different schema instead of mis-diffing it.
const ManifestVersion = 1

// Watched are the module-relative kernel files whose diagnostics are
// golden. Growing the hot surface means adding the file here and
// regenerating the manifest.
var Watched = []string{
	"internal/engine/shard.go",
	"internal/engine/span.go",
	"internal/zeroone/sliced.go",
	"internal/zeroone/threshold.go",
}

// Packages are the build targets that compile the watched files.
var Packages = []string{"./internal/engine", "./internal/zeroone"}

// GoldenPath is the manifest location, relative to the module root.
const GoldenPath = "internal/lint/gcdiag/testdata/hotpaths.json"

// FuncDiag is the compiler's verdict on one function: how many bounds
// checks survived BCE, and which values escape to the heap.
type FuncDiag struct {
	BoundsChecks int `json:"bounds_checks"`
	// Escapes holds the escape-analysis messages (sorted), without line
	// numbers so unrelated edits above a function do not churn the golden
	// file.
	Escapes []string `json:"escapes,omitempty"`
}

// Manifest is the golden file: per watched file, per function, the pinned
// diagnostics. Functions with zero bounds checks and no escapes are
// recorded explicitly only when another function of the file has entries;
// an absent function means "clean".
type Manifest struct {
	ManifestVersion int                            `json:"manifest_version"`
	Go              string                         `json:"go"`
	Files           map[string]map[string]FuncDiag `json:"files"`
}

// A Finding is one kept diagnostic with its current location, for
// reporting drift with a named function and line.
type Finding struct {
	File string // module-relative watched file
	Line int
	Col  int
	Func string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Func, f.Msg)
}

// Collect builds the kernel packages with diagnostic flags and returns
// the manifest of the watched files plus the located findings behind it.
func Collect(moduleDir string) (*Manifest, []Finding, error) {
	args := append([]string{"build", "-gcflags=-m=1 -d=ssa/check_bce/debug=1"}, Packages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, nil, fmt.Errorf("gcdiag: go build failed: %v\n%s", err, out)
	}

	spans, err := funcSpans(moduleDir, Watched)
	if err != nil {
		return nil, nil, err
	}
	watched := map[string]bool{}
	for _, f := range Watched {
		watched[f] = true
	}

	m := &Manifest{ManifestVersion: ManifestVersion, Go: runtime.Version(), Files: map[string]map[string]FuncDiag{}}
	for _, f := range Watched {
		m.Files[f] = map[string]FuncDiag{}
	}
	var findings []Finding
	seen := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		file, ln, col, msg, ok := parseDiagLine(line)
		if !ok || !watched[file] || !keepMessage(msg) {
			continue
		}
		// The build replays diagnostics once per compilation, but
		// inlining can repeat one site; dedupe by exact location+text.
		key := file + ":" + strconv.Itoa(ln) + ":" + strconv.Itoa(col) + ":" + msg
		if seen[key] {
			continue
		}
		seen[key] = true
		fn := enclosingFuncName(spans[file], ln)
		findings = append(findings, Finding{File: file, Line: ln, Col: col, Func: fn, Msg: msg})
		d := m.Files[file][fn]
		if isBoundsCheck(msg) {
			d.BoundsChecks++
		} else {
			d.Escapes = append(d.Escapes, msg)
		}
		m.Files[file][fn] = d
	}
	for _, file := range keysOf(m.Files) {
		funcs := m.Files[file]
		for _, fn := range keysOf(funcs) {
			d := funcs[fn]
			sort.Strings(d.Escapes)
			funcs[fn] = d
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return m, findings, nil
}

// parseDiagLine splits one "file:line:col: message" diagnostic; paths are
// module-relative as the build command names them.
func parseDiagLine(line string) (file string, ln, col int, msg string, ok bool) {
	line = strings.TrimPrefix(strings.TrimSpace(line), "./")
	if !strings.HasPrefix(line, "internal/") {
		return "", 0, 0, "", false
	}
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return "", 0, 0, "", false
	}
	ln, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	return parts[0], ln, col, strings.TrimSpace(parts[3]), true
}

// keepMessage picks out the diagnostics the gate pins: surviving bounds
// checks and heap escapes. Inlining chatter, does-not-escape proofs, and
// leaking-param annotations are compiler narration, not regressions.
func keepMessage(msg string) bool {
	if isBoundsCheck(msg) {
		return true
	}
	if strings.Contains(msg, "does not escape") {
		return false
	}
	return strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap")
}

func isBoundsCheck(msg string) bool {
	return msg == "Found IsInBounds" || msg == "Found IsSliceInBounds"
}

// funcSpan is one declaration's line range in a watched file.
type funcSpan struct {
	name       string
	start, end int
}

// funcSpans parses each watched file and maps it to its declarations'
// line ranges. Methods are named Recv.Name so the manifest reads like the
// source.
func funcSpans(moduleDir string, files []string) (map[string][]funcSpan, error) {
	out := map[string][]funcSpan{}
	fset := token.NewFileSet()
	for _, rel := range files {
		path := filepath.Join(moduleDir, filepath.FromSlash(rel))
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("gcdiag: parsing %s: %w", rel, err)
		}
		var spans []funcSpan
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = recvTypeName(fn.Recv.List[0].Type) + "." + name
			}
			spans = append(spans, funcSpan{
				name:  name,
				start: fset.Position(fn.Pos()).Line,
				end:   fset.Position(fn.End()).Line,
			})
		}
		out[rel] = spans
	}
	return out, nil
}

func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	default:
		return "?"
	}
}

// enclosingFuncName maps a diagnostic line to its function, or "(file)"
// for file-scope diagnostics.
func enclosingFuncName(spans []funcSpan, line int) string {
	for _, s := range spans {
		if line >= s.start && line <= s.end {
			return s.name
		}
	}
	return "(file)"
}

// Diff compares current against golden and returns one drift message per
// mismatch, empty when the manifests agree. Both directions drift: a new
// bounds check is a regression, and a disappeared one means the golden
// file overstates the kernel and must be regenerated to stay honest.
func Diff(golden, current *Manifest) []string {
	var drift []string
	if golden.ManifestVersion != current.ManifestVersion {
		return []string{fmt.Sprintf("manifest version %d != %d; regenerate %s",
			golden.ManifestVersion, current.ManifestVersion, GoldenPath)}
	}
	for _, f := range sortedUnion(keysOf(golden.Files), keysOf(current.Files)) {
		g, c := golden.Files[f], current.Files[f]
		for _, fn := range sortedUnion(keysOf(g), keysOf(c)) {
			gd, cd := g[fn], c[fn]
			if gd.BoundsChecks != cd.BoundsChecks {
				drift = append(drift, fmt.Sprintf("%s: %s: bounds checks %d -> %d",
					f, fn, gd.BoundsChecks, cd.BoundsChecks))
			}
			if !equalStrings(gd.Escapes, cd.Escapes) {
				drift = append(drift, fmt.Sprintf("%s: %s: heap escapes %v -> %v",
					f, fn, gd.Escapes, cd.Escapes))
			}
		}
	}
	return drift
}

// keysOf returns m's keys sorted. The collection loop is the detrand
// analyzer's sanctioned key-collection idiom, so every manifest traversal
// in this package is deterministic — which also keeps drift messages in a
// stable order across runs.
func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortedUnion merges two sorted key slices, dropping duplicates.
func sortedUnion(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	out = append(append(out, a...), b...)
	sort.Strings(out)
	n := 0
	for i, k := range out {
		if i == 0 || k != out[n-1] {
			out[n] = k
			n++
		}
	}
	return out[:n]
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Load reads a manifest file.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("gcdiag: %s: %w", path, err)
	}
	return &m, nil
}

// Result is one gate run.
type Result struct {
	// Skipped is set when the golden manifest was generated by a
	// different toolchain; Notice says which.
	Skipped bool
	Notice  string
	// Drift holds the manifest mismatches; Findings the current located
	// diagnostics of every drifting function, so the failure names the
	// function and line to look at.
	Drift    []string
	Findings []Finding
}

// Run executes the gate against the committed golden manifest.
func Run(moduleDir string) (Result, error) {
	golden, err := Load(filepath.Join(moduleDir, filepath.FromSlash(GoldenPath)))
	if err != nil {
		return Result{}, err
	}
	if golden.ManifestVersion != ManifestVersion {
		return Result{Drift: []string{fmt.Sprintf("golden manifest version %d != supported %d; regenerate %s",
			golden.ManifestVersion, ManifestVersion, GoldenPath)}}, nil
	}
	if golden.Go != runtime.Version() {
		return Result{Skipped: true, Notice: fmt.Sprintf(
			"gcdiag: golden manifest pinned to %s but running %s; compiler diagnostics are version-sensitive, skipping (regenerate with -gcdiag-update to re-pin)",
			golden.Go, runtime.Version())}, nil
	}
	current, findings, err := Collect(moduleDir)
	if err != nil {
		return Result{}, err
	}
	drift := Diff(golden, current)
	if len(drift) == 0 {
		return Result{}, nil
	}
	// Attach the current locations of every drifting function.
	drifting := map[string]bool{}
	for _, d := range drift {
		if i := strings.Index(d, ": "); i > 0 {
			if j := strings.Index(d[i+2:], ":"); j > 0 {
				drifting[d[:i]+"/"+d[i+2:i+2+j]] = true
			}
		}
	}
	var located []Finding
	for _, f := range findings {
		if drifting[f.File+"/"+f.Func] {
			located = append(located, f)
		}
	}
	return Result{Drift: drift, Findings: located}, nil
}

// Update regenerates the golden manifest in place.
func Update(moduleDir string) error {
	m, _, err := Collect(moduleDir)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(moduleDir, filepath.FromSlash(GoldenPath))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
