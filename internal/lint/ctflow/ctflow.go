// Package ctflow implements the secret-dependent-control-flow
// analyzer: inside functions annotated //horam:constant-time (or all
// functions of a file carrying the marker at file level), any branch
// condition, loop condition, switch, map operation, secret-indexed
// memory access or variable-length slice operation that taints from a
// //horam:secret value is a diagnostic.
//
// Taint model. Roots are the annotated objects. Taint propagates
// through assignments, arithmetic, indexing, struct/slice composition
// and calls — with three laundering channels, which are exactly the
// flows the constant-time discipline declares safe:
//
//   - constant-time comparisons (ctops.Eq*/Lt*/Ge*, the
//     crypto/subtle comparison family) produce public 0-or-1 masks;
//   - any other ctops/subtle call that is not a select (selects carry
//     the taint of their data operands, not their mask);
//   - calls to functions annotated //horam:mask.
//
// A secret passed to a same-package function is flagged at the call
// when the callee uses the matching parameter directly (anywhere inside
// the expression) as an index or a slice bound: a helper such as
// slot(p) { return pool[p*size : (p+1)*size] } hides the secret index
// from a walk of the caller alone, and the callee need not itself be
// constant-time code for the access to leak.
//
// len and cap are treated as public: every length in the constant-time
// paths of this repository is a validated, capacity-bounded quantity
// (the secrets are addresses and contents, not sizes). Accumulated
// sums of masks (ranks, occupancy counts) launder through the
// comparison rule; the ctmask analyzer polices the mask domain itself.
// //horam:ct-ok on a diagnostic's line suppresses it — the audited,
// documented deviations.
package ctflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/annot"
	"repro/internal/lint/ctcall"
)

// Analyzer is the ctflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctflow",
	Doc:  "flag secret-dependent control flow and memory indexing in //horam:constant-time code",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	in := annot.Collect(pass)
	indexing := indexingParams(pass)
	for _, fn := range in.CTFuncs {
		newFunc(pass, in, indexing, fn).analyze()
	}
	return nil
}

// indexingParams maps every function and method declared in the
// package to the positions of the parameters it uses directly as a
// memory index or a slice bound; functions with none are absent.
func indexingParams(pass *analysis.Pass) map[*types.Func][]bool {
	out := map[*types.Func][]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			params := map[types.Object]int{}
			n := 0
			for _, field := range fn.Type.Params.List {
				for _, name := range field.Names {
					params[pass.TypesInfo.Defs[name]] = n
					n++
				}
				if len(field.Names) == 0 {
					n++
				}
			}
			used := make([]bool, n)
			indexes := false
			mark := func(e ast.Expr) {
				if e == nil {
					return
				}
				ast.Inspect(e, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok {
						if i, ok := params[pass.TypesInfo.Uses[id]]; ok {
							used[i], indexes = true, true
						}
					}
					return true
				})
			}
			ast.Inspect(fn.Body, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.IndexExpr:
					if memoryIndex(pass.TypesInfo, x) {
						mark(x.Index)
					}
				case *ast.SliceExpr:
					mark(x.Low)
					mark(x.High)
					mark(x.Max)
				}
				return true
			})
			if indexes {
				out[obj] = used
			}
		}
	}
	return out
}

// memoryIndex reports whether x indexes a slice, array, pointer to
// array or string (not a map, and not a generic instantiation).
func memoryIndex(info *types.Info, x *ast.IndexExpr) bool {
	if tv, ok := info.Types[x.X]; !ok || tv.IsType() {
		return false
	}
	switch info.TypeOf(x.X).Underlying().(type) {
	case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
		return true
	}
	return false
}

// funcAnalysis is the per-function taint state.
type funcAnalysis struct {
	pass *analysis.Pass
	in   *annot.Info
	fn   *ast.FuncDecl

	// indexing is indexingParams' result for the package.
	indexing map[*types.Func][]bool

	// taint maps a tainted object to the name of the root secret it
	// derives from (for diagnostics).
	taint map[types.Object]string
}

func newFunc(pass *analysis.Pass, in *annot.Info, indexing map[*types.Func][]bool, fn *ast.FuncDecl) *funcAnalysis {
	a := &funcAnalysis{pass: pass, in: in, fn: fn, indexing: indexing, taint: map[types.Object]string{}}
	for _, obj := range in.FuncSecrets(fn) {
		a.taint[obj] = obj.Name()
	}
	return a
}

func (a *funcAnalysis) analyze() {
	// Monotone fixpoint: assignments spread taint until stable.
	for a.propagate() {
	}
	a.report()
}

// obj resolves an identifier to its object.
func (a *funcAnalysis) obj(id *ast.Ident) types.Object {
	if o := a.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return a.pass.TypesInfo.Defs[id]
}

// taintOf returns the root-secret name e taints from, or "".
func (a *funcAnalysis) taintOf(e ast.Expr) string {
	switch e := e.(type) {
	case nil:
		return ""
	case *ast.Ident:
		if o := a.obj(e); o != nil {
			return a.taint[o]
		}
	case *ast.SelectorExpr:
		if o := a.pass.TypesInfo.Uses[e.Sel]; o != nil {
			if why := a.taint[o]; why != "" {
				return why
			}
		}
		return a.taintOf(e.X)
	case *ast.CallExpr:
		return a.taintOfCall(e)
	case *ast.ParenExpr:
		return a.taintOf(e.X)
	case *ast.UnaryExpr:
		return a.taintOf(e.X)
	case *ast.StarExpr:
		return a.taintOf(e.X)
	case *ast.BinaryExpr:
		if why := a.taintOf(e.X); why != "" {
			return why
		}
		return a.taintOf(e.Y)
	case *ast.IndexExpr:
		if why := a.taintOf(e.X); why != "" {
			return why
		}
		return a.taintOf(e.Index)
	case *ast.SliceExpr:
		for _, sub := range []ast.Expr{e.X, e.Low, e.High, e.Max} {
			if why := a.taintOf(sub); why != "" {
				return why
			}
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if why := a.taintOf(el); why != "" {
				return why
			}
		}
	case *ast.KeyValueExpr:
		return a.taintOf(e.Value)
	case *ast.TypeAssertExpr:
		return a.taintOf(e.X)
	}
	return ""
}

func (a *funcAnalysis) taintOfCall(call *ast.CallExpr) string {
	info := a.pass.TypesInfo
	// Conversions carry the taint of their operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return a.taintOf(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "copy", "make", "new":
				// Lengths and fresh objects are public; a tainted make
				// SIZE is flagged by the reporting walk, not here.
				return ""
			case "append":
				for _, arg := range call.Args {
					if why := a.taintOf(arg); why != "" {
						return why
					}
				}
				return ""
			default:
				return ""
			}
		}
	}
	if fn := ctcall.Callee(info, call); fn != nil {
		switch {
		case ctcall.IsSelect(fn):
			// The result is one of the data operands; the mask does
			// not flow into it.
			if why := a.taintOf(call.Args[1]); why != "" {
				return why
			}
			return a.taintOf(call.Args[2])
		case ctcall.IsCTPrimitive(fn):
			// Comparisons and the remaining primitives launder: their
			// results are public masks by the package contract.
			return ""
		case a.in.MaskFuncs[fn]:
			// //horam:mask functions return established masks; their
			// results are public by annotation.
			return ""
		}
	}
	// Ordinary call: the result taints if the callee value (a method's
	// receiver) or any argument does.
	if why := a.taintOf(call.Fun); why != "" {
		return why
	}
	for _, arg := range call.Args {
		if why := a.taintOf(arg); why != "" {
			return why
		}
	}
	return ""
}

// mark taints the object behind an assignment target.
func (a *funcAnalysis) mark(lhs ast.Expr, why string) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return false
		}
		if o := a.obj(lhs); o != nil {
			return a.add(o, why)
		}
	case *ast.IndexExpr:
		// Storing a secret into a container taints the container.
		return a.mark(lhs.X, why)
	case *ast.SliceExpr:
		return a.mark(lhs.X, why)
	case *ast.StarExpr:
		return a.mark(lhs.X, why)
	case *ast.SelectorExpr:
		if o := a.pass.TypesInfo.Uses[lhs.Sel]; o != nil {
			return a.add(o, why)
		}
	}
	return false
}

func (a *funcAnalysis) add(o types.Object, why string) bool {
	if _, ok := a.taint[o]; ok {
		return false
	}
	a.taint[o] = why
	return true
}

// propagate runs one pass of taint spreading; it reports whether the
// taint set grew.
func (a *funcAnalysis) propagate() bool {
	changed := false
	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				if why := a.taintOf(n.Rhs[0]); why != "" {
					for _, lhs := range n.Lhs {
						changed = a.mark(lhs, why) || changed
					}
				}
				return true
			}
			for i, rhs := range n.Rhs {
				if why := a.taintOf(rhs); why != "" {
					changed = a.mark(n.Lhs[i], why) || changed
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					if why := a.taintOf(vs.Values[0]); why != "" {
						for _, name := range vs.Names {
							changed = a.mark(name, why) || changed
						}
					}
					continue
				}
				for i, v := range vs.Values {
					if why := a.taintOf(v); why != "" {
						changed = a.mark(vs.Names[i], why) || changed
					}
				}
			}
		case *ast.RangeStmt:
			why := a.taintOf(n.X)
			if why == "" {
				return true
			}
			if n.Value != nil {
				changed = a.mark(n.Value, why) || changed
			}
			if n.Key != nil {
				// Slice/array range keys are public indices; map keys
				// are stored data.
				if _, isMap := a.pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); isMap {
					changed = a.mark(n.Key, why) || changed
				}
			}
		}
		return true
	})
	return changed
}

// report walks the body once and emits diagnostics.
func (a *funcAnalysis) report() {
	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			a.flag(n.Pos(), n.Cond, "if condition")
		case *ast.ForStmt:
			if n.Cond != nil {
				a.flag(n.Pos(), n.Cond, "for condition")
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				a.flag(n.Pos(), n.Tag, "switch tag")
			}
			for _, cc := range n.Body.List {
				if cc, ok := cc.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						a.flag(cc.Pos(), e, "switch case")
					}
				}
			}
		case *ast.RangeStmt:
			if _, isMap := a.pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); isMap {
				if why := a.taintOf(n.X); why != "" && !a.in.CTOK(n.Pos()) {
					a.pass.Reportf(n.Pos(), "range over map holding secret %q in constant-time code (iteration order and length are data-dependent)", why)
				}
			}
		case *ast.IndexExpr:
			if tv, ok := a.pass.TypesInfo.Types[n.X]; !ok || tv.IsType() {
				return true // generic instantiation, not an index
			}
			if _, isMap := a.pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); isMap {
				a.flag(n.Pos(), n.Index, "map index")
			} else if memoryIndex(a.pass.TypesInfo, n) {
				if why := a.taintOf(n.Index); why != "" && !a.in.CTOK(n.Pos()) {
					a.pass.Reportf(n.Pos(), "memory index depends on secret %q in constant-time code (secret-dependent address)", why)
				}
			}
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{n.Low, n.High, n.Max} {
				if why := a.taintOf(b); why != "" && !a.in.CTOK(n.Pos()) {
					a.pass.Reportf(n.Pos(), "slice bounds depend on secret %q in constant-time code (variable-length operation)", why)
					break
				}
			}
		case *ast.CallExpr:
			a.flagIndexingArgs(n)
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := a.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(n.Args) > 1 {
					for _, sz := range n.Args[1:] {
						if why := a.taintOf(sz); why != "" && !a.in.CTOK(n.Pos()) {
							a.pass.Reportf(n.Pos(), "make size depends on secret %q in constant-time code (variable-length operation)", why)
							break
						}
					}
				}
			}
		}
		return true
	})
}

// flagIndexingArgs reports each secret argument of call that the
// same-package callee uses as a memory index or slice bound.
func (a *funcAnalysis) flagIndexingArgs(call *ast.CallExpr) {
	fn := ctcall.Callee(a.pass.TypesInfo, call)
	used := a.indexing[fn]
	for i, arg := range call.Args {
		if i >= len(used) || !used[i] {
			continue
		}
		if why := a.taintOf(arg); why != "" && !a.in.CTOK(arg.Pos()) {
			a.pass.Reportf(arg.Pos(), "argument %d of %s is a memory index or slice bound in the callee and depends on secret %q in constant-time code (secret-dependent address)", i+1, fn.Name(), why)
		}
	}
}

// flag reports a secret-dependent control-flow condition at pos.
func (a *funcAnalysis) flag(pos token.Pos, cond ast.Expr, what string) {
	why := a.taintOf(cond)
	if why == "" || a.in.CTOK(pos) {
		return
	}
	a.pass.Reportf(pos, "%s depends on secret %q in constant-time code", what, why)
}
