package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotDirective marks a function as hot-path: HotAlloc enforces a
// zero-steady-state-allocation discipline inside it. The annotation
// lives in the function's doc comment:
//
//	// emit stages ev into the trace buffer.
//	//
//	//chimera:hot
//	func (s *Simulation) emit(ev trace.Event) { ... }
//
// The contract: a //chimera:hot function runs per simulated event (or
// more often) and must not allocate in steady state. PR 7 bought the
// 1.75× / 88×-fewer-allocs hot-loop win with arenas, free lists and
// scratch buffers; the annotation pins each of those functions so a
// regression is a build failure, not a benchmark surprise. Amortized
// allocations that are part of the design — a pool grow path, a
// once-per-struct closure — stay, annotated //chimera:allow hotalloc <reason>.
const HotDirective = "//chimera:hot"

// HotAlloc flags constructs that always heap-allocate inside functions
// annotated //chimera:hot:
//
//   - make, new, and slice/map composite literals (a make inside an
//     `if cap(...) < n` or `if len(...) < n` growth guard is the
//     amortized scratch-grow idiom and is admitted);
//   - &T{} composite addresses;
//   - function literals that capture variables (a capturing closure
//     allocates its environment; a capture-free literal is static);
//   - fmt.Sprintf/Sprint/Sprintln and string concatenation
//     (fmt.Errorf is deliberately admitted: error paths are cold);
//   - conversions of concrete values to interface types (boxing);
//   - append whose destination is a freshly allocated local slice
//     (appending to fields, parameters, or locals aliasing persistent
//     storage — scratch[:0], make-with-cap — shows capacity evidence
//     and passes).
//
// The analyzer runs in every package; it fires only inside annotated
// functions, including their nested function literals.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags always-heap-allocating constructs (make, literals, capturing closures, Sprintf, " +
		"boxing, append without capacity evidence) in functions annotated //chimera:hot",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotFunc(fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

// isHotFunc reports whether the declaration's doc comment carries the
// //chimera:hot directive.
func isHotFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == HotDirective || strings.HasPrefix(c.Text, HotDirective+" ") {
			return true
		}
	}
	return false
}

// checkHotFunc walks one annotated function. Growth-guard regions are
// collected first so a make inside `if cap(s) < n { s = make(...) }`
// is recognized as the amortized scratch idiom rather than a
// steady-state allocation.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	guards := growthGuards(pass.Info, fd.Body)
	params := paramObjs(pass.Info, fd.Type)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fd, n, guards, params)
		case *ast.CompositeLit:
			if tv, ok := pass.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal allocates in //chimera:hot %s: "+
						"reuse a scratch buffer, or annotate //chimera:allow hotalloc <reason>", fd.Name.Name)
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates in //chimera:hot %s: "+
						"hoist it out of the hot path, or annotate //chimera:allow hotalloc <reason>", fd.Name.Name)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal heap-allocates in //chimera:hot %s: "+
						"recycle through a free list, or annotate //chimera:allow hotalloc <reason>", fd.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pass.Info.Types[n]; ok && tv.Value == nil && isStringType(tv.Type) {
					pass.Reportf(n.Pos(), "string concatenation allocates in //chimera:hot %s: "+
						"precompute the string, or annotate //chimera:allow hotalloc <reason>", fd.Name.Name)
				}
			}
			// Skip the operands: reporting once per concatenation chain
			// is enough, and constant subexpressions stay admissible.
			return n.Op != token.ADD
		case *ast.FuncLit:
			if capturesVariables(pass, n) {
				pass.Reportf(n.Pos(), "closure captures variables and heap-allocates in //chimera:hot %s: "+
					"create it once outside the hot path (the pooled-struct idiom), or annotate //chimera:allow hotalloc <reason>",
					fd.Name.Name)
			}
			// Keep walking: the literal's body also runs on the hot path.
		}
		return true
	})
}

// checkHotCall flags allocating calls: make/new outside growth guards,
// fmt.Sprintf and friends, boxing conversions, and appends without
// capacity evidence.
func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, guards []posRange, params map[types.Object]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				if !inRanges(call.Pos(), guards) {
					pass.Reportf(call.Pos(), "%s allocates in //chimera:hot %s: "+
						"reuse a scratch buffer or guard the grow with `if cap(...) < n`, "+
						"or annotate //chimera:allow hotalloc <reason>", id.Name, fd.Name.Name)
				}
			case "append":
				if len(call.Args) > 0 && freshLocalSlice(pass, fd, call.Args[0], params) {
					pass.Reportf(call.Pos(), "append grows a freshly allocated local slice in //chimera:hot %s: "+
						"append into a reused scratch buffer (scratch[:0]) or preallocate capacity, "+
						"or annotate //chimera:allow hotalloc <reason>", fd.Name.Name)
				}
			}
			return
		}
	}
	if pkg, name, ok := pkgFuncCall(pass.Info, call); ok && pkg == "fmt" &&
		(name == "Sprintf" || name == "Sprint" || name == "Sprintln") {
		pass.Reportf(call.Pos(), "fmt.%s allocates in //chimera:hot %s: "+
			"move formatting off the hot path, or annotate //chimera:allow hotalloc <reason>", name, fd.Name.Name)
		return
	}
	// A conversion T(x) to an interface type boxes concrete values.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			if argTV, ok := pass.Info.Types[call.Args[0]]; ok && argTV.Type != nil {
				if _, alreadyIface := argTV.Type.Underlying().(*types.Interface); !alreadyIface {
					pass.Reportf(call.Pos(), "conversion to interface type boxes (heap-allocates) in //chimera:hot %s: "+
						"keep the concrete type, or annotate //chimera:allow hotalloc <reason>", fd.Name.Name)
				}
			}
		}
	}
}

// posRange is a half-open source region.
type posRange struct{ lo, hi token.Pos }

func inRanges(p token.Pos, rs []posRange) bool {
	for _, r := range rs {
		if r.lo <= p && p < r.hi {
			return true
		}
	}
	return false
}

// growthGuards collects the bodies of if statements whose condition
// reads cap() or len() — the `if cap(buf) < n { buf = make(...) }`
// amortized-growth idiom, which allocates O(log n) times over a run,
// not per event.
func growthGuards(info *types.Info, body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						guarded = true
					}
				}
			}
			return !guarded
		})
		if guarded {
			out = append(out, posRange{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return out
}

// paramObjs collects the parameter (and named result) objects of a
// function type; appending to a caller-provided slice is the caller's
// capacity decision, not this function's allocation.
func paramObjs(info *types.Info, ft *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	collect(ft.Params)
	collect(ft.Results)
	return out
}

// freshLocalSlice reports whether an append destination is rooted in a
// local slice with no capacity evidence. Selectors, derefs, index
// expressions and parameters alias storage owned elsewhere and pass;
// a local passes if its declaration shows capacity evidence (a slice
// of an existing buffer like scratch[:0], a make with an explicit
// capacity, or any aliasing expression) and fails if it is freshly
// allocated (var x []T, x := []T{...}, make without capacity).
func freshLocalSlice(pass *Pass, fd *ast.FuncDecl, dst ast.Expr, params map[types.Object]bool) bool {
	for {
		switch d := dst.(type) {
		case *ast.ParenExpr:
			dst = d.X
		case *ast.SliceExpr:
			dst = d.X
		default:
			goto resolved
		}
	}
resolved:
	id, ok := dst.(*ast.Ident)
	if !ok {
		return false // field, deref, index: persistent storage
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil || params[obj] {
		return false
	}
	if obj.Parent() == nil || (obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()) {
		return false // package-level buffer
	}
	decl, found := findDecl(pass, fd, obj)
	if !found {
		return false // declaration out of view: benefit of the doubt
	}
	return !hasCapacityEvidence(pass, decl)
}

// findDecl locates the expression a local variable was declared with:
// the matching RHS of a := / var declaration. found distinguishes a
// located declaration (possibly with a nil expression for the
// zero-evidence `var x []T` form) from one out of view.
func findDecl(pass *Pass, fd *ast.FuncDecl, obj types.Object) (decl ast.Expr, found bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if lid, ok := lhs.(*ast.Ident); ok && pass.Info.Defs[lid] == obj {
					if len(n.Rhs) == len(n.Lhs) {
						decl = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						decl = n.Rhs[0]
					}
					found = true
					return false
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.Info.Defs[name] == obj {
					if i < len(n.Values) {
						decl = n.Values[i]
					}
					found = true
					return false
				}
			}
		}
		return true
	})
	return decl, found
}

// hasCapacityEvidence inspects a declaration RHS for proof the slice
// aliases preallocated storage: a slice expression (scratch[:0]), a
// make with an explicit capacity argument, or any non-allocating
// aliasing form (call result, selector, index). Fresh forms — slice
// literals and make without capacity — are the ones append then grows
// per call.
func hasCapacityEvidence(pass *Pass, rhs ast.Expr) bool {
	if rhs == nil {
		return false // var x []T
	}
	sliced := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if _, ok := n.(*ast.SliceExpr); ok {
			sliced = true
		}
		return !sliced
	})
	if sliced {
		return true
	}
	switch r := rhs.(type) {
	case *ast.CompositeLit:
		return false // x := []T{...}
	case *ast.CallExpr:
		if id, ok := r.Fun.(*ast.Ident); ok && id.Name == "make" {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				return len(r.Args) >= 3 // make([]T, n, cap) shows intent; make([]T, n) does not
			}
		}
	}
	return true // aliases something that already exists
}

// capturesVariables reports whether a function literal references
// variables declared outside itself (its closure environment, which
// escapes to the heap when the literal does). Package-level objects
// live in static storage and are not captures.
func capturesVariables(pass *Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, isVar := pass.Info.Uses[id].(*types.Var)
		if !isVar || obj.IsField() {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // the literal's own parameter or local
		}
		if obj.Pkg() == nil || obj.Parent() == nil {
			return true
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return true // package-level variable: static storage
		}
		captured = true
		return false
	})
	return captured
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
