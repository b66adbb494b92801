package lint

import (
	"go/ast"
	"go/types"
)

// StreamClose enforces the owned-value lifecycle contracts: every
// engine.Stream and *relm.Results acquired from a call must reach Close on
// all paths (DESIGN.md decision 8 — an abandoned stream keeps its derived
// cancellation context registered with its parent for the parent's lifetime,
// the goroutine/context leak class PR 2 fixed by hand), and every
// *kvcache.Handle must reach Release the same way (decision 14 — a leaked
// handle pins its arena node forever, excluding it from demotion and
// eviction, so the byte budget silently shrinks), and every *relm.Session
// must reach Close (decision 12 — a leaked session counts as a live query
// forever, so the fusion batcher holds every partial batch for the full
// admission window again).
//
// The check is per-function and flow-insensitive: a tracked value produced
// by a call must, somewhere in the same function (closures included), either
//
//   - have its release method (Close / Release) called or deferred on it,
//   - be returned to the caller,
//   - be passed to another function or method,
//   - be stored (assigned to a field, element, or another variable, placed
//     in a composite literal, or sent on a channel),
//
// otherwise the acquisition is reported. Discarding a tracked result
// outright (expression statement or blank identifier) is always reported.
// Sites where ownership is subtler than the analyzer can see carry
// //relm:allow(streamclose) with the audit rationale.
var StreamClose = &Analyzer{
	Name: "streamclose",
	Doc: "every engine.Stream / relm.Results / relm.Session must reach Close, " +
		"and every kvcache.Handle must reach Release, on all paths — or be " +
		"explicitly ownership-transferred",
	Run: runStreamClose,
}

// streamTypes lists the owned-lifecycle types and each one's release method.
var streamTypes = []struct {
	pkg, name, release string
}{
	{"repro/internal/engine", "Stream", "Close"},
	{"repro/relm", "Results", "Close"},
	{"repro/internal/kvcache", "Handle", "Release"},
	{"repro/relm", "Session", "Close"},
}

// releaseMethodOf returns the release-method name for a tracked type, or
// ok=false when t is not tracked.
func releaseMethodOf(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	for _, st := range streamTypes {
		if namedAs(t, st.pkg, st.name) {
			return st.release, true
		}
	}
	return "", false
}

func isStreamType(t types.Type) bool {
	_, ok := releaseMethodOf(t)
	return ok
}

func runStreamClose(p *Pass) error {
	funcBodies(p, func(name string, body *ast.BlockStmt) {
		checkStreamsInFunc(p, body)
	})
	return nil
}

type acquisition struct {
	obj     types.Object
	pos     ast.Node
	release string
}

func checkStreamsInFunc(p *Pass, body *ast.BlockStmt) {
	var acquired []acquisition
	released := map[types.Object]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					acquired = append(acquired, streamAssignees(p, n.Lhs, call)...)
				}
			}
			// A tracked var as a direct RHS value is an alias or store.
			for _, rhs := range n.Rhs {
				markDirectStream(p, rhs, released)
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 {
				if call, ok := ast.Unparen(n.Values[0]).(*ast.CallExpr); ok {
					lhs := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						lhs[i] = id
					}
					acquired = append(acquired, streamAssignees(p, lhs, call)...)
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				reportDiscardedStream(p, call)
			}
		case *ast.CallExpr:
			// s.Close() / h.Release() — or the method passed as a value —
			// releases the receiver; any tracked var passed as an argument is
			// ownership-transferred.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if rel, tracked := releaseMethodOf(p.TypeOf(sel.X)); tracked && sel.Sel.Name == rel {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if obj := p.ObjectOf(id); obj != nil {
							released[obj] = true
						}
					}
				}
			}
			for _, arg := range n.Args {
				markDirectStream(p, arg, released)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markDirectStream(p, r, released)
			}
		case *ast.SendStmt:
			markDirectStream(p, n.Value, released)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				markDirectStream(p, e, released)
			}
		}
		return true
	})

	reported := map[types.Object]bool{}
	for _, a := range acquired {
		if released[a.obj] || reported[a.obj] {
			continue
		}
		reported[a.obj] = true
		p.Reportf(a.pos.Pos(), "%s (%s) is never %sd, returned, or ownership-transferred in this function; owned values must reach %s on every path", a.obj.Name(), typeShort(a.obj.Type()), a.release, a.release)
	}
}

// streamAssignees maps call results to LHS identifiers, returning the tracked
// acquisitions and reporting stream results assigned to the blank identifier.
func streamAssignees(p *Pass, lhs []ast.Expr, call *ast.CallExpr) []acquisition {
	var out []acquisition
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue // field/index target: stored, owner elsewhere
		}
		rel, tracked := releaseMethodOf(p.TypeOf(l))
		if !tracked {
			// Blank identifiers have no type entry; recover it from the call.
			if id.Name == "_" && callYieldsStreamAt(p, call, indexOf(lhs, l)) {
				p.Reportf(l.Pos(), "owned result of %s discarded with _; it must be released even on abandonment", exprString(call.Fun))
			}
			continue
		}
		if id.Name == "_" {
			p.Reportf(l.Pos(), "owned result of %s discarded with _; it must be released even on abandonment", exprString(call.Fun))
			continue
		}
		obj := p.ObjectOf(id)
		if obj == nil {
			continue
		}
		out = append(out, acquisition{obj: obj, pos: id, release: rel})
	}
	return out
}

func indexOf(lhs []ast.Expr, e ast.Expr) int {
	for i, l := range lhs {
		if l == e {
			return i
		}
	}
	return -1
}

// callYieldsStreamAt reports whether result i of call has a tracked type.
func callYieldsStreamAt(p *Pass, call *ast.CallExpr, i int) bool {
	t := p.TypeOf(call)
	if t == nil || i < 0 {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if i >= tup.Len() {
			return false
		}
		return isStreamType(tup.At(i).Type())
	}
	return i == 0 && isStreamType(t)
}

// reportDiscardedStream flags expression statements that drop a stream-typed
// call result on the floor.
func reportDiscardedStream(p *Pass, call *ast.CallExpr) {
	t := p.TypeOf(call)
	if t == nil {
		return
	}
	hit := false
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isStreamType(tup.At(i).Type()) {
				hit = true
			}
		}
	} else if isStreamType(t) {
		hit = true
	}
	if hit {
		p.Reportf(call.Pos(), "call to %s discards its owned result; the value must be released", exprString(call.Fun))
	}
}

// markDirectStream records a tracked variable used as a direct value
// (aliased, stored, returned, sent, or passed) as released. Only the direct
// position counts: a mention as a method-call receiver (s.Next()) is a use,
// not a transfer, and must not silence the leak report — nested expressions
// are handled when the walk reaches their own nodes.
func markDirectStream(p *Pass, e ast.Expr, released map[types.Object]bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	if !isStreamType(p.TypeOf(id)) {
		return
	}
	if obj := p.ObjectOf(id); obj != nil {
		released[obj] = true
	}
}

func typeShort(t types.Type) string {
	return types.TypeString(t, func(pkg *types.Package) string { return pkg.Name() })
}
