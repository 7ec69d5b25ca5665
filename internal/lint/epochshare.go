package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EpochShare enforces the epoch-ownership contract of the parallel
// simulator (DESIGN.md §11, §14): code running in a goroutine spawned
// between merge barriers may write only goroutine-local state or state
// whose sharing discipline is declared with //conc:shared, and may
// never reach a //conc:barrier function. The analysis roots at go
// statements — except those whose //conc:owns directive declares that
// the goroutine owns everything it writes — and walks the call graph:
// function literals, local function values, named callees, and every
// declared implementation of a dynamically dispatched interface method
// (the class-hierarchy closure of the PR 3 soundness caveat).
var EpochShare = &Analyzer{
	Name:      "epochshare",
	Doc:       "goroutine-spawned code writes only goroutine-local or //conc:shared state",
	Tier:      TierConc,
	RunModule: runEpochShare,
}

func runEpochShare(p *ModulePass) {
	ci := p.Prog.concDirectives()
	for _, pr := range ci.problems {
		p.Reportf(pr.pos, "malformed directive: want %s <reason>", pr.marker)
	}
	es := &epochShare{
		p:          p,
		ci:         ci,
		visitedFn:  make(map[*FuncNode]bool),
		visitedLit: make(map[*ast.FuncLit]bool),
	}
	for _, site := range spawnSites(p) {
		if pos, why, ok := spawnOwner(p, site); ok {
			if why != "" {
				continue // the goroutine owns what it writes
			}
			p.Reportf(pos, "malformed directive: want %s <reason>", ownsDirective)
		}
		es.spawn(site)
	}
}

// epochShare is the per-run state of the spawn-rooted walk. Functions
// and literals are visited once, under the provenance of the first
// spawn that reached them; visit order follows Funcs order and source
// order, so provenance is deterministic.
type epochShare struct {
	p          *ModulePass
	ci         *concInfo
	visitedFn  map[*FuncNode]bool
	visitedLit map[*ast.FuncLit]bool
}

// esCtx is one body being checked in spawned context.
type esCtx struct {
	pkg  *Package
	root string // the function whose go statement we descended from
	// declLo/declHi span the whole declaration (parameters included):
	// an object declared inside is at worst a parameter, outside is
	// captured or global. bodyLo/bodyHi span the body alone: objects
	// inside are context-local variables.
	declLo, declHi token.Pos
	bodyLo, bodyHi token.Pos
	// aliasExt marks context-local variables that alias external memory
	// (initialized from a pointer, slice or map reaching outside).
	aliasExt map[types.Object]bool
	// reportAt maps a finding position into the analyzed set: inside an
	// analyzed function it is the identity; inside a dependency-only
	// function every finding lands on the frontier call site instead.
	reportAt func(token.Pos) token.Pos
	// suffix names the dependency function when reportAt redirects.
	suffix string
	// lits resolves single-assignment local function values of the
	// enclosing declaration.
	lits map[types.Object]*ast.FuncLit
}

// spawn analyzes one go statement: the spawned callee and everything
// reachable from it run in worker context.
func (es *epochShare) spawn(site spawnSite) {
	root := hotFuncName(site.fn)
	lits := localFuncLits(site.fn)
	es.resolveCall(site.fn.Pkg, site.stmt.Call, root, site.stmt.Pos(), lits, nil)
}

// resolveCall routes one call made in spawned context to its targets.
// host is non-nil when the call was found while walking a context (its
// reportAt/suffix carry the frontier); for the go statement itself the
// site is always analyzed.
func (es *epochShare) resolveCall(pkg *Package, call *ast.CallExpr, root string, pos token.Pos, lits map[types.Object]*ast.FuncLit, host *esCtx) {
	reportPos := pos
	suffix := ""
	if host != nil {
		reportPos = host.reportAt(pos)
		suffix = host.suffix
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		es.walkLit(pkg, lit, root, reportPos, suffix, lits)
		return
	}
	obj := calleeObj(pkg.Info, call)
	if obj == nil {
		return
	}
	if lit, ok := lits[obj]; ok {
		es.walkLit(pkg, lit, root, reportPos, suffix, lits)
		return
	}
	if callee := es.p.Prog.NodeOf(obj); callee != nil {
		es.enter(callee, root, reportPos, suffix)
		return
	}
	if m, ok := interfaceMethod(obj); ok {
		for _, impl := range es.p.Prog.implementersOf(m) {
			es.enter(impl, root, reportPos, suffix)
		}
	}
}

// enter checks the barrier rule and then walks a named callee in
// spawned context.
func (es *epochShare) enter(fn *FuncNode, root string, via token.Pos, suffix string) {
	if why, ok := es.ci.barriers[fn]; ok {
		es.p.Reportf(via, "goroutine-spawned code calls //conc:barrier function %s%s (spawned in %s; barrier rationale: %s)",
			hotFuncName(fn), suffix, root, why)
		return
	}
	if es.visitedFn[fn] {
		return
	}
	es.visitedFn[fn] = true
	ctx := &esCtx{
		pkg:    fn.Pkg,
		root:   root,
		declLo: fn.Decl.Pos(),
		declHi: fn.Decl.End(),
		bodyLo: fn.Decl.Body.Pos(),
		bodyHi: fn.Decl.Body.End(),
		lits:   localFuncLits(fn),
	}
	if es.p.analyzed(fn) {
		ctx.reportAt = func(pos token.Pos) token.Pos { return pos }
	} else {
		// Findings inside a dependency-only package would be dropped by
		// Reportf; attribute them to the frontier call site instead.
		ctx.reportAt = func(token.Pos) token.Pos { return via }
		ctx.suffix = " (in " + hotFuncName(fn) + ")"
	}
	es.walkCtx(ctx, fn.Decl.Body)
}

// walkLit walks a function literal spawned (or called from spawned
// context) inside the declaration whose lits map resolved it.
func (es *epochShare) walkLit(pkg *Package, lit *ast.FuncLit, root string, via token.Pos, suffix string, lits map[types.Object]*ast.FuncLit) {
	if es.visitedLit[lit] {
		return
	}
	es.visitedLit[lit] = true
	ctx := &esCtx{
		pkg:    pkg,
		root:   root,
		declLo: lit.Pos(),
		declHi: lit.End(),
		bodyLo: lit.Body.Pos(),
		bodyHi: lit.Body.End(),
		suffix: suffix,
		lits:   lits,
	}
	if suffix == "" {
		ctx.reportAt = func(pos token.Pos) token.Pos { return pos }
	} else {
		ctx.reportAt = func(token.Pos) token.Pos { return via }
	}
	es.walkCtx(ctx, lit.Body)
}

// walkCtx checks every write and resolves every call of one context
// body.
func (es *epochShare) walkCtx(ctx *esCtx, body *ast.BlockStmt) {
	ctx.aliasExt = es.aliasScan(ctx, body)
	info := ctx.pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				es.checkWrite(ctx, lhs)
			}
		case *ast.IncDecStmt:
			es.checkWrite(ctx, n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "copy" || b.Name() == "clear") {
					es.checkWrite(ctx, n.Args[0])
					return true
				}
			}
			es.resolveCall(ctx.pkg, n, ctx.root, n.Pos(), ctx.lits, ctx)
		}
		return true
	})
}

// aliasScan marks the context-local variables that alias external
// memory: a pointer, slice or map initialized (directly or through a
// chain of locals) from a parameter, captured variable, global, or
// range/receive over one. Locals bound to fresh allocations (composite
// literals, calls, new) stay local.
func (es *epochShare) aliasScan(ctx *esCtx, body *ast.BlockStmt) map[types.Object]bool {
	info := ctx.pkg.Info
	ext := make(map[types.Object]bool)
	extRoot := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		root := rootObj(info, e)
		if root == nil {
			return false
		}
		if root.Pos() >= ctx.bodyLo && root.Pos() < ctx.bodyHi {
			return ext[root]
		}
		return true
	}
	mark := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil || ext[obj] {
			return
		}
		if !pointerish(info.TypeOf(id)) {
			return
		}
		if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.AND {
			if extRoot(u.X) {
				ext[obj] = true
			}
			return
		}
		if extRoot(rhs) {
			ext[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) {
					mark(lhs, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					mark(name, n.Values[i])
				}
			}
		case *ast.RangeStmt:
			// The value variable of a range over external memory (or any
			// channel receive) aliases it when the element is a pointer,
			// slice or map; a plain struct element arrives as a copy.
			if n.Tok == token.DEFINE && n.Value != nil {
				if id, ok := n.Value.(*ast.Ident); ok && pointerish(info.TypeOf(id)) && extRoot(n.X) {
					if obj := info.ObjectOf(id); obj != nil {
						ext[obj] = true
					}
				}
			}
		}
		return true
	})
	return ext
}

// checkWrite classifies one lvalue written in spawned context.
func (es *epochShare) checkWrite(ctx *esCtx, lhs ast.Expr) {
	info := ctx.pkg.Info
	e := ast.Unparen(lhs)
	if id, ok := e.(*ast.Ident); ok {
		// Rebinding a variable: local for anything declared in the
		// context (body variables and parameter copies alike).
		if id.Name == "_" {
			return
		}
		obj := info.ObjectOf(id)
		v, isVar := obj.(*types.Var)
		if !isVar || (v.Pos() >= ctx.declLo && v.Pos() < ctx.declHi) {
			return
		}
		if _, ok := es.ci.sharedFields[qualifiedObj(v)]; ok {
			return
		}
		es.p.Reportf(ctx.reportAt(lhs.Pos()),
			"goroutine-spawned code rebinds non-local variable %s%s (spawned in %s); make it goroutine-local or annotate //conc:shared",
			v.Name(), ctx.suffix, ctx.root)
		return
	}

	root := rootObj(info, e)
	rv, ok := root.(*types.Var)
	if !ok {
		return
	}
	external := true
	if rv.Pos() >= ctx.bodyLo && rv.Pos() < ctx.bodyHi {
		external = ctx.aliasExt[rv]
	}
	if !external {
		return
	}
	desc, shared := es.sharedDesc(info, e, rv)
	if shared {
		return
	}
	es.p.Reportf(ctx.reportAt(lhs.Pos()),
		"goroutine-spawned code writes shared state %s%s (spawned in %s); make it core-local, defer it to the merge barrier, or annotate //conc:shared",
		desc, ctx.suffix, ctx.root)
}

// sharedDesc names the written location and reports whether a
// //conc:shared annotation covers it: the written field ("Type.field"
// keys), the field's owner type, the root variable (package variables),
// or the named type of the written location itself (writes through a
// plain pointer).
func (es *epochShare) sharedDesc(info *types.Info, lhs ast.Expr, root *types.Var) (string, bool) {
	for e := ast.Unparen(lhs); ; {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.SliceExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		case *ast.SelectorExpr:
			f, ok := info.ObjectOf(x.Sel).(*types.Var)
			if !ok || !f.IsField() {
				e = ast.Unparen(x.X)
				continue
			}
			owner, ok := derefNamed(info.TypeOf(x.X)).(*types.Named)
			if !ok {
				return f.Name(), false
			}
			key := qualifiedObj(owner.Obj())
			if _, ok := es.ci.sharedFields[key+"."+f.Name()]; ok {
				return "", true
			}
			if _, ok := es.ci.sharedTypes[key]; ok {
				return "", true
			}
			return owner.Obj().Name() + "." + f.Name(), false
		default:
			// No field selector on the path: a write through a bare
			// pointer/slice/map root. Accept an annotation on the root
			// variable (package state) or on the written location's
			// named type.
			if _, ok := es.ci.sharedFields[qualifiedObj(root)]; ok {
				return "", true
			}
			if t, ok := derefNamed(info.TypeOf(lhs)).(*types.Named); ok {
				if _, ok := es.ci.sharedTypes[qualifiedObj(t.Obj())]; ok {
					return "", true
				}
			}
			return root.Name(), false
		}
	}
}

// pointerish reports whether values of t can alias memory owned
// elsewhere when copied.
func pointerish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}
