package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared base of the concurrency-isolation tier
// (cacheconc, DESIGN.md §14). The epoch-parallel simulator's contract
// — "a per-core goroutine touches only core-local state between merge
// barriers" (DESIGN.md §11) — lived in prose and equivalence tests
// until this tier; here it becomes declared ownership plus inference,
// the same shape hotness.go gave the performance tier:
//
//	//conc:shared <why>   on a struct type or field: state worker
//	                      goroutines may legitimately touch — per-core
//	                      indexed (disjoint elements), owned by exactly
//	                      one worker between barriers, or serialized by
//	                      an engine-level discipline such as
//	                      Phase.Serial. The reason is mandatory and is
//	                      the written ownership audit.
//	//conc:barrier <why>  on a function: runs only on the coordinator
//	                      with workers quiescent (a merge barrier or
//	                      the serial reference path). Reaching it from
//	                      a spawned goroutine is itself a finding.
//	//conc:owns <why>     on a go statement (its line or the line
//	                      above): the second ownership model — the
//	                      spawned goroutine owns everything it writes,
//	                      such as a whole forked System, for its life.
//	                      epochshare roots no walk there; the other
//	                      analyzers still check the spawn.
//
// The epochshare analyzer roots at goroutine spawn sites and walks the
// call graph from each spawned closure; a write to state that is
// neither goroutine-local nor annotated is a finding. The remaining
// analyzers of the tier (atomicmix, chanproto, wgbalance,
// goroutinecapture) share the spawn-site discovery and the sync-object
// recognition helpers below.

// Conc-tier directive markers. Text after the marker is the mandatory
// rationale; a bare marker is reported as a malformed directive.
const (
	sharedDirective  = "//conc:shared"
	barrierDirective = "//conc:barrier"
	ownsDirective    = "//conc:owns"
)

// concInfo is the module-wide view of the conc directives, memoized on
// the Program (module analyzers run serially, so the lazy fill is
// race-free, as with the hotness set).
type concInfo struct {
	// sharedTypes and sharedFields map "pkgpath.Type" and
	// "pkgpath.Type.field" (or "pkgpath.var" for package variables) to
	// the annotation rationale.
	sharedTypes  map[string]string
	sharedFields map[string]string
	// barriers maps barrier-annotated functions to their rationale.
	barriers map[*FuncNode]string
	// problems lists malformed directives (missing rationale), reported
	// by the epochshare analyzer.
	problems []concProblem
}

// concProblem is a malformed conc directive.
type concProblem struct {
	pos    token.Pos
	marker string
}

// concDirectives collects the //conc: annotations of every loaded
// module package once per Program.
func (prog *Program) concDirectives() *concInfo {
	if prog.conc != nil {
		return prog.conc
	}
	ci := &concInfo{
		sharedTypes:  make(map[string]string),
		sharedFields: make(map[string]string),
		barriers:     make(map[*FuncNode]string),
	}
	malformed := func(cg *ast.CommentGroup, marker string) (string, bool) {
		if cg == nil {
			return "", false
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, marker)
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
				continue
			}
			reason := strings.TrimSpace(rest)
			if reason == "" {
				ci.problems = append(ci.problems, concProblem{pos: c.Pos(), marker: marker})
				continue
			}
			return reason, true
		}
		return "", false
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						key := pkg.Path + "." + spec.Name.Name
						for _, cg := range []*ast.CommentGroup{gd.Doc, spec.Doc, spec.Comment} {
							if why, ok := malformed(cg, sharedDirective); ok {
								ci.sharedTypes[key] = why
							}
						}
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							var why string
							found := false
							for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
								if w, ok := malformed(cg, sharedDirective); ok {
									why, found = w, true
								}
							}
							if !found {
								continue
							}
							for _, name := range field.Names {
								ci.sharedFields[key+"."+name.Name] = why
							}
						}
					case *ast.ValueSpec:
						for _, cg := range []*ast.CommentGroup{gd.Doc, spec.Doc, spec.Comment} {
							if why, ok := malformed(cg, sharedDirective); ok {
								for _, name := range spec.Names {
									ci.sharedFields[pkg.Path+"."+name.Name] = why
								}
							}
						}
					}
				}
			}
		}
	}
	// Local types (declared inside function bodies) can carry the same
	// field annotations; walk declarations for nested GenDecls. The doc
	// comment of a single-spec declaration attaches to the GenDecl, so
	// track the enclosing one.
	for _, fn := range prog.Funcs {
		info := fn.Pkg.Info
		var gdDoc *ast.CommentGroup
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if gd, ok := n.(*ast.GenDecl); ok {
				gdDoc = gd.Doc
				return true
			}
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			obj := info.Defs[ts.Name]
			if obj == nil {
				return true
			}
			key := qualifiedObj(obj)
			for _, cg := range []*ast.CommentGroup{gdDoc, ts.Doc, ts.Comment} {
				if why, ok := malformed(cg, sharedDirective); ok {
					ci.sharedTypes[key] = why
				}
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
						if why, ok := malformed(cg, sharedDirective); ok {
							for _, name := range field.Names {
								ci.sharedFields[key+"."+name.Name] = why
							}
						}
					}
				}
			}
			return true
		})
		if fn.Decl.Doc != nil {
			if why, ok := malformed(fn.Decl.Doc, barrierDirective); ok {
				ci.barriers[fn] = why
			}
		}
	}
	prog.conc = ci
	return ci
}

// qualifiedObj renders any package-scoped object as "pkgpath.Name".
func qualifiedObj(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// spawnSite is one go statement in an analyzed function.
type spawnSite struct {
	fn   *FuncNode
	stmt *ast.GoStmt
}

// spawnSites returns every go statement of the analyzed packages under
// the simulation prefixes, in deterministic program order. Go
// statements inside function literals are attributed to the enclosing
// declaration, matching the call graph's convention.
func spawnSites(p *ModulePass) []spawnSite {
	var sites []spawnSite
	for _, fn := range p.Prog.Funcs {
		if !p.analyzed(fn) || !underAny(fn.Pkg.Path, p.Config.SimPrefixes) {
			continue
		}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				sites = append(sites, spawnSite{fn: fn, stmt: g})
			}
			return true
		})
	}
	return sites
}

// spawnOwner finds a //conc:owns directive on a spawn's go statement
// line or the line above, returning its position and rationale (empty
// for a malformed bare marker).
func spawnOwner(p *ModulePass, site spawnSite) (token.Pos, string, bool) {
	pos := site.stmt.Pos()
	line := p.Fset.Position(pos).Line
	for _, f := range site.fn.Pkg.Files {
		if pos < f.FileStart || pos >= f.FileEnd {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ownsDirective)
				if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
					continue
				}
				if l := p.Fset.Position(c.Pos()).Line; l == line || l == line-1 {
					return c.Pos(), strings.TrimSpace(rest), true
				}
			}
		}
	}
	return token.NoPos, "", false
}

// localFuncLits maps function-value locals to their literal when the
// enclosing function assigns exactly one literal to the variable —
// the `runTask := func(...) {...}` idiom the engine's worker pools
// use. A variable bound to two different literals is dropped (its
// target is ambiguous).
func localFuncLits(fn *FuncNode) map[types.Object]*ast.FuncLit {
	info := fn.Pkg.Info
	out := make(map[types.Object]*ast.FuncLit)
	ambiguous := make(map[types.Object]bool)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil || ambiguous[obj] {
			return
		}
		if _, dup := out[obj]; dup {
			delete(out, obj)
			ambiguous[obj] = true
			return
		}
		out[obj] = lit
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range n.Names {
				if i < len(n.Values) {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// implementersOf returns the declared module methods that implement an
// interface method — the class-hierarchy edge closing the call graph's
// interface-dispatch gap for the conc tier (a spawned worker calling
// exec.Kernel.Step reaches every kernel implementation). Results come
// in deterministic Funcs order and are memoized per interface method.
func (prog *Program) implementersOf(m *types.Func) []*FuncNode {
	if prog.impls == nil {
		prog.impls = make(map[*types.Func][]*FuncNode)
	}
	if impls, ok := prog.impls[m]; ok {
		return impls
	}
	var iface *types.Interface
	if recv := m.Type().(*types.Signature).Recv(); recv != nil {
		iface, _ = recv.Type().Underlying().(*types.Interface)
	}
	var impls []*FuncNode
	if iface != nil {
		for _, fn := range prog.Funcs {
			if fn.Obj.Name() != m.Name() {
				continue
			}
			recv := receiverOf(fn)
			if recv == nil {
				continue
			}
			if _, ok := recv.Type().Underlying().(*types.Interface); ok {
				continue
			}
			if types.Implements(recv.Type(), iface) ||
				types.Implements(types.NewPointer(derefNamed(recv.Type())), iface) {
				impls = append(impls, fn)
			}
		}
	}
	prog.impls[m] = impls
	return impls
}

// interfaceMethod reports whether obj is an interface method, i.e. a
// call through it is dynamic dispatch.
func interfaceMethod(obj types.Object) (*types.Func, bool) {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false
	}
	_, ok = recv.Type().Underlying().(*types.Interface)
	return fn, ok
}

// isWaitGroupType reports whether t is sync.WaitGroup (possibly
// pointered).
func isWaitGroupType(t types.Type) bool {
	return qualifiedName(derefNamed(t)) == "sync.WaitGroup"
}

// waitGroupCall matches a wg.Add/Done/Wait call, returning the
// receiver's root object and the method name.
func waitGroupCall(info *types.Info, call *ast.CallExpr) (types.Object, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return nil, "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil || !isWaitGroupType(t) {
		return nil, "", false
	}
	return rootObj(info, sel.X), sel.Sel.Name, true
}

// chanRoot returns the root object of a channel-typed expression, nil
// when the expression is not rooted at a named channel variable.
func chanRoot(info *types.Info, e ast.Expr) types.Object {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return nil
	}
	return rootObj(info, e)
}
