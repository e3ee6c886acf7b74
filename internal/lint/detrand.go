package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// DetRand protects the reproducibility contract of the Monte-Carlo
// harness: (seed, algorithm, side, trial) must map to bit-identical
// results on every run, platform and worker count. Three things break
// that silently, and all three are flagged in simulation and statistics
// packages:
//
//   - importing math/rand (or math/rand/v2): the harness owns its
//     generators (internal/rng) precisely so no global, non-reseedable
//     source can leak in;
//   - calling time.Now/time.Since/time.Until: wall-clock input makes
//     results run-dependent (timing belongs in benchmarks, which are
//     outside this analyzer's targets);
//   - ranging over a map: Go randomizes iteration order per run, so any
//     map-ordered fold or output is nondeterministic. Iterate a sorted
//     key slice instead, or annotate the loop's function when order
//     provably cannot reach results.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid math/rand, wall-clock reads and map-iteration-order " +
		"dependence in simulation and statistics packages",
	Targets: func(path string) bool {
		if path == "repro" || strings.HasPrefix(path, "repro/internal/") {
			return true
		}
		switch path {
		// meshsortd and meshsortctl are deliberately excluded: they read
		// the wall clock by design (request logging, drain timeouts,
		// client poll deadlines). The serving core they wrap,
		// repro/internal/serve, IS covered —
		// its one wall-clock window is the file-exempted clock.go, and
		// durations feed only logs and /metrics, never result payloads.
		case "repro/cmd/experiments", "repro/cmd/lemmas", "repro/cmd/mesh2dsort", "repro/cmd/meshlint":
			return true
		}
		return false
	},
	Run: runDetRand,
}

// nondetRandImports are the packages whose sources of randomness bypass
// the per-trial stream discipline.
var nondetRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// wallClockFuncs are the time package functions that read the wall clock.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runDetRand(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if nondetRandImports[path] {
				pass.Reportf(imp.Pos(),
					"import of %s: simulation code must derive all randomness from internal/rng per-trial streams", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if name, ok := wallClockCall(info, x); ok {
					pass.Reportf(x.Pos(),
						"call to time.%s: wall-clock reads make (seed, algorithm, side, trial) results run-dependent", name)
				}
			case *ast.RangeStmt:
				if t := info.Types[x.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap && !isKeyCollectionLoop(info, x) {
						pass.Reportf(x.Pos(),
							"range over map: iteration order is randomized per run; iterate a sorted key slice instead")
					}
				}
			}
			return true
		})
	}
	return nil
}

// isKeyCollectionLoop recognizes the sanctioned fix idiom — collecting a
// map's keys into a slice that the caller then sorts:
//
//	for k := range m { keys = append(keys, k) }
//
// The loop must not bind the value variable, and its body must be exactly
// one statement of the form `x = append(x, k)`. The appended slice is in
// arbitrary order until sorted, but such a loop cannot itself observe the
// iteration order, and the subsequent sort is what every caller of this
// idiom does with it.
func isKeyCollectionLoop(info *types.Info, loop *ast.RangeStmt) bool {
	if loop.Value != nil {
		return false
	}
	key, ok := loop.Key.(*ast.Ident)
	if !ok || len(loop.Body.List) != 1 {
		return false
	}
	asg, ok := loop.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	lhs, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok || dst.Name != lhs.Name {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// wallClockCall reports whether call is time.Now/Since/Until.
func wallClockCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !wallClockFuncs[sel.Sel.Name] {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "time" {
		return "", false
	}
	return sel.Sel.Name, true
}
