package lint

import (
	"go/ast"
	"go/types"
)

// gridPkgPath is the package whose Grid type holds the mesh cell values.
const gridPkgPath = "repro/internal/grid"

// gridValueReaders are the grid.Grid methods whose results depend on cell
// *values* (as opposed to geometry like Flat, RankCell or Dims). Any
// expression derived from one of these is value-tainted.
var gridValueReaders = map[string]bool{
	"At":              true,
	"AtFlat":          true,
	"Cells":           true,
	"Values":          true,
	"ReadOrder":       true,
	"IsSorted":        true,
	"Equal":           true,
	"Sorted":          true,
	"Threshold":       true,
	"CountValue":      true,
	"FindValue":       true,
	"ColumnZeroCount": true,
	"ColumnWeight":    true,
}

// Oblivious enforces the paper's central structural property: schedules
// are oblivious, so outside explicitly whitelisted compare-exchange and
// measurement primitives, no if/for/switch condition may depend on grid
// cell values. This is what justifies the compiled-schedule cache, the
// trial-sliced 0-1 kernel, and every 0-1-principle argument: the comparator
// sequence is a function of (step, mesh shape) alone. It is also what
// makes the span kernel sound: the engine's span plan may compile a step
// once into unit-stride runs precisely because the comparator set never
// depends on data, so building the plan is pure index arithmetic and must
// pass this analyzer with no exemption at all. In the engine's span
// executor only the settled-window run loops and the input classification
// (permutationMin) are exempt; the innermost SWAR sweep is branchless —
// lane-wise masks, min/max and a SETcc-counted swap in the tail — and is
// required to stay taint-free.
//
// The check is an intraprocedural taint analysis. Calls to grid.Grid
// value accessors (At, AtFlat, Cells, …) seed the taint; assignments and
// range clauses propagate it to local variables; any control-flow
// condition containing a tainted expression is reported. Value-dependent
// code that is *supposed* to read cells — the engine's compare-exchange
// loops, the 0-1 statistics, the lemma checkers — carries
// //meshlint:exempt oblivious directives, which keeps the whitelist
// visible in the source under review.
var Oblivious = &Analyzer{
	Name: "oblivious",
	Doc: "flag control flow that depends on grid cell values outside " +
		"whitelisted compare-exchange primitives (schedules must be oblivious)",
	Targets: pathIn(
		"repro/internal/sched",
		"repro/internal/engine",
		"repro/internal/zeroone",
	),
	Run: runOblivious,
}

func runOblivious(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkObliviousFunc(pass, fn)
		}
	}
	return nil
}

// checkObliviousFunc runs the taint analysis over one function body
// (including any nested function literals, which share the local scope).
func checkObliviousFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	tainted := map[types.Object]bool{}

	// exprTainted reports whether e contains a cell-value read or a use of
	// a tainted local.
	exprTainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.CallExpr:
				if isGridValueRead(info, x) {
					found = true
				}
			case *ast.Ident:
				if obj := info.Uses[x]; obj != nil && tainted[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	taintIdent := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || tainted[obj] {
			return false
		}
		tainted[obj] = true
		return true
	}

	// Propagate taint through assignments, declarations and range clauses
	// to a fixed point (chains like cells := g.Cells(); v := cells[i]
	// need more than one sweep).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, rhs := range s.Rhs {
						if exprTainted(rhs) && taintIdent(s.Lhs[i]) {
							changed = true
						}
					}
				} else {
					// Tuple assignment from one call: taint everything.
					any := false
					for _, rhs := range s.Rhs {
						if exprTainted(rhs) {
							any = true
						}
					}
					if any {
						for _, lhs := range s.Lhs {
							if taintIdent(lhs) {
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				any := false
				for _, v := range s.Values {
					if exprTainted(v) {
						any = true
					}
				}
				if any {
					for _, name := range s.Names {
						if taintIdent(name) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				// Ranging over a value-tainted collection taints the
				// element variable (the key is a position, not a value).
				if s.Value != nil && exprTainted(s.X) && taintIdent(s.Value) {
					changed = true
				}
			}
			return true
		})
	}

	report := func(cond ast.Expr, kind string) {
		if cond != nil && exprTainted(cond) {
			pass.Reportf(cond.Pos(),
				"%s condition depends on grid cell values; oblivious schedules may branch on data only inside compare-exchange primitives marked //meshlint:exempt oblivious", kind)
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			report(s.Cond, "if")
		case *ast.ForStmt:
			report(s.Cond, "for")
		case *ast.SwitchStmt:
			report(s.Tag, "switch")
			for _, stmt := range s.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					report(e, "case")
				}
			}
		}
		return true
	})
}

// isGridValueRead reports whether call reads cell values: a method in
// gridValueReaders invoked on a grid.Grid receiver.
func isGridValueRead(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !gridValueReaders[sel.Sel.Name] {
		return false
	}
	selection := info.Selections[sel]
	if selection == nil {
		return false
	}
	return isGridType(selection.Recv())
}

// isGridType reports whether t is grid.Grid or *grid.Grid.
func isGridType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Grid" && obj.Pkg() != nil && obj.Pkg().Path() == gridPkgPath
}

// pathIn builds a Targets predicate matching an explicit set of import
// paths.
func pathIn(paths ...string) func(string) bool {
	set := map[string]bool{}
	for _, p := range paths {
		set[p] = true
	}
	return func(path string) bool { return set[path] }
}
