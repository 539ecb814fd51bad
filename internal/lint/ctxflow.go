package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlowPackages are the packages forming the cancellation path that
// PR 3 threaded from the HTTP layer down to the engine
// (HTTP → server → simjob → workloads). A broken link here turns a
// client cancel or deadline into a leaked goroutine still simulating.
var CtxFlowPackages = []string{
	"chimera/internal/server",
	"chimera/internal/simjob",
	"chimera/internal/workloads",
	// The replay path re-drives whole campaigns through the same chain;
	// a severed context there would leak an entire replayed workload.
	"chimera/internal/jobspec",
	"chimera/internal/replay",
	"chimera/cmd/chimerareplay",
	// The fleet tier extends the chain one hop upward: front → replica
	// → peer cache. A severed context here would leak proxied requests
	// or peer fetches past their caller's deadline.
	"chimera/internal/cluster",
	"chimera/cmd/chimerafront",
	// The admission queue sits on chimerad's submit path: a blocking
	// exported API there without a context would wedge the HTTP layer.
	"chimera/internal/sched",
	// kernelir analyses run inside simulation jobs and idemscan drives
	// them from the CLI; neither may launder a caller's context or grow
	// an unbounded exported blocking API.
	"chimera/internal/kernelir",
	"chimera/cmd/idemscan",
}

// CtxFlow guards the cancellation chain with two rules:
//
//  1. no laundering: inside any function that already has a
//     context.Context in scope (a ctx parameter, or an *http.Request
//     whose Context() carries it), calling context.Background() or
//     context.TODO() severs the caller's cancellation and is flagged;
//  2. blocking APIs accept a context: an exported function or method
//     (on an exported type) that blocks — channel operations, select
//     without default, sync Wait — must take a context.Context so
//     callers can bound it.
//
// Deliberate roots — functions without a context parameter that start
// a fresh context at the API boundary — have no surrounding context and
// are therefore not laundering; a genuine exception carries
// //chimera:allow ctxflow <reason>.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "exported blocking APIs in server/simjob/workloads must accept a context.Context " +
		"and must not launder it through context.Background()/TODO()",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if !hasPrefixPath(pass.PkgPath, CtxFlowPackages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hasCtx := funcTypeHasContext(pass.Info, fd.Type)
			checkLaundering(pass, fd.Body, hasCtx)
			if !hasCtx && exportedAPI(pass.Info, fd) {
				if pos, op, blocking := firstBlockingOp(pass.Info, fd.Body); blocking {
					pass.Reportf(fd.Pos(), "exported %s blocks (%s at %s) but accepts no context.Context: "+
						"add a ctx parameter or annotate //chimera:allow ctxflow <reason>",
						fd.Name.Name, op, pass.Fset.Position(pos))
				}
			}
		}
	}
	return nil
}

// checkLaundering walks body flagging context.Background()/TODO() calls
// wherever a context is in scope. Function literals update the scope:
// a literal that declares its own ctx parameter restores it, one that
// doesn't inherits the surrounding availability (a goroutine closure
// still sees the enclosing ctx and should use it).
func checkLaundering(pass *Pass, body ast.Node, ctxInScope bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkLaundering(pass, n.Body, ctxInScope || funcTypeHasContext(pass.Info, n.Type))
			return false
		case *ast.CallExpr:
			if !ctxInScope {
				return true
			}
			if pkg, name, ok := pkgFuncCall(pass.Info, n); ok && pkg == "context" && (name == "Background" || name == "TODO") {
				pass.Reportf(n.Pos(), "context.%s() discards the context already in scope: "+
					"thread the caller's ctx through, or annotate //chimera:allow ctxflow <reason>", name)
			}
		}
		return true
	})
}

// funcTypeHasContext reports whether the signature carries a
// context.Context parameter or an *http.Request (whose Context()
// provides one).
func funcTypeHasContext(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		pkg, name := namedTypePath(tv.Type)
		if pkg == "context" && name == "Context" {
			return true
		}
		if pkg == "net/http" && name == "Request" {
			return true
		}
	}
	return false
}

// exportedAPI reports whether fd is part of the package's exported
// surface: an exported function, or an exported method on an exported
// named type.
func exportedAPI(info *types.Info, fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	tv, ok := info.Types[fd.Recv.List[0].Type]
	if !ok {
		return true
	}
	_, name := namedTypePath(tv.Type)
	return name == "" || ast.IsExported(name)
}

// firstBlockingOp scans a function body or statement (excluding nested
// function literals, which run on their own goroutines or are invoked
// by ctx-aware callees) for an operation that can block indefinitely.
func firstBlockingOp(info *types.Info, body ast.Node) (pos token.Pos, op string, found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pos, op, found = n.Pos(), "channel send", true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pos, op, found = n.Pos(), "channel receive", true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pos, op, found = n.Pos(), "range over channel", true
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				pos, op, found = n.Pos(), "select without default", true
				return false
			}
			// A select with a default never blocks; its comm clauses
			// (sends/receives) are polls, so scan only the clause bodies.
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && !found {
					for _, s := range cc.Body {
						if p, o, f := firstBlockingOp(info, s); f && !found {
							pos, op, found = p, o, f
						}
					}
				}
			}
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && len(n.Args) == 0 {
				if t := info.Types[sel.X].Type; t != nil {
					if pkg, name := namedTypePath(t); pkg == "sync" && name == "WaitGroup" {
						pos, op, found = n.Pos(), "sync.WaitGroup.Wait", true
					}
				}
			}
		}
		return !found
	})
	return pos, op, found
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
