package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SchedPurity keeps compiled schedules safely shareable. sched.Cached and
// zeroone.CachedSliced hand one schedule object to every concurrent
// Monte-Carlo trial, relying on two properties:
//
//   - Step and Phases methods are pure reads: they never write receiver
//     fields, package-level variables, or captured variables, so a shared
//     schedule can be stepped from any number of goroutines without
//     synchronization. Methods named Spans and Comparators — the names a
//     derived view of a shared schedule takes — are held to the same
//     contract.
//   - Schedule constructors (New*, Compile*, ByName, Cached*) never write
//     package-level variables directly; process-wide caches must go
//     through a synchronized container (sync.Map), not a bare global.
//
// A memoizing Step ("cache the last comparator slice in a field") would
// pass every single-goroutine test and corrupt results only under
// mcbatch's concurrent trial workers — exactly the regression this
// analyzer makes impossible.
//
// internal/serve is covered for the constructor half of the contract:
// NewServer (and any future New*/Compile*/Cached* helper there) is called
// once per daemon but shares its Server across every handler goroutine,
// so state must live in struct fields guarded by the Server's own
// synchronization, never in bare package globals.
var SchedPurity = &Analyzer{
	Name: "schedpurity",
	Doc: "Step/Phases/Spans/Comparators methods and schedule constructors must not " +
		"write receiver fields or package globals (shared read-only schedules)",
	Targets: pathIn(
		"repro/internal/sched",
		"repro/internal/zeroone",
		"repro/internal/serve",
	),
	Run: runSchedPurity,
}

// readOnlyMethods are the schedule methods that must stay pure. Spans and
// Comparators name derived views of a shared schedule, so they carry the
// same no-write contract.
var readOnlyMethods = map[string]bool{
	"Step":        true,
	"Phases":      true,
	"Spans":       true,
	"Comparators": true,
}

// isScheduleCtor reports whether a function name is a schedule
// constructor under the analyzer's contract.
func isScheduleCtor(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Compile") ||
		strings.HasPrefix(name, "Cached") || name == "ByName"
}

func runSchedPurity(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			switch {
			case fn.Recv != nil && readOnlyMethods[fn.Name.Name]:
				checkReadOnlyMethod(pass, fn)
			case fn.Recv == nil && isScheduleCtor(fn.Name.Name):
				checkCtor(pass, fn)
			}
		}
	}
	return nil
}

// receiverObject returns the types.Object of fn's receiver variable, or
// nil for an anonymous receiver.
func receiverObject(pass *Pass, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.Pkg.Info.Defs[fn.Recv.List[0].Names[0]]
}

// checkReadOnlyMethod flags writes to the receiver or to package-level
// variables anywhere in a Step/Phases body (nested closures included —
// a closure capturing the receiver is still a receiver write).
func checkReadOnlyMethod(pass *Pass, fn *ast.FuncDecl) {
	recv := receiverObject(pass, fn)
	forEachWrite(fn.Body, func(lhs ast.Expr) {
		root := lhsRoot(lhs)
		if root == nil {
			return
		}
		obj := pass.Pkg.Info.Uses[root]
		if obj == nil {
			obj = pass.Pkg.Info.Defs[root]
		}
		if obj == nil {
			return
		}
		switch {
		case recv != nil && obj == recv:
			pass.Reportf(lhs.Pos(),
				"%s writes receiver state via %s; Step/Phases must be read-only so compiled schedules are shareable across goroutines",
				fn.Name.Name, root.Name)
		case isPackageLevelVar(pass, obj):
			pass.Reportf(lhs.Pos(),
				"%s writes package-level variable %s; Step/Phases must be read-only so compiled schedules are shareable across goroutines",
				fn.Name.Name, root.Name)
		}
	})
}

// checkCtor flags direct writes to package-level variables from schedule
// constructors. (Synchronized containers like sync.Map mutate through
// method calls, which are the sanctioned path and are not flagged.)
func checkCtor(pass *Pass, fn *ast.FuncDecl) {
	forEachWrite(fn.Body, func(lhs ast.Expr) {
		root := lhsRoot(lhs)
		if root == nil {
			return
		}
		obj := pass.Pkg.Info.Uses[root]
		if obj == nil {
			return
		}
		if isPackageLevelVar(pass, obj) {
			pass.Reportf(lhs.Pos(),
				"schedule constructor %s writes package-level variable %s; shared caches must use a synchronized container",
				fn.Name.Name, root.Name)
		}
	})
}

// forEachWrite calls fn for every assignment or ++/-- target in body.
// Short variable declarations (:=) only create locals and are skipped.
func forEachWrite(body ast.Node, fn func(lhs ast.Expr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				fn(lhs)
			}
		case *ast.IncDecStmt:
			fn(s.X)
		}
		return true
	})
}

// lhsRoot unwraps an assignable expression (x, x.f, x[i], *x, (x)) to its
// base identifier, or nil if the base is not an identifier (e.g. a call
// result).
func lhsRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPackageLevelVar reports whether obj is a variable declared at package
// scope.
func isPackageLevelVar(pass *Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Parent() == pass.Pkg.Types.Scope()
}
