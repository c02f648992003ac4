package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
)

// cgNode is one analyzable function body: a declared function/method or
// a function literal. The typed analyzers reason over nodes, never raw
// ASTs, so closures participate in the interprocedural dataflow exactly
// like named functions.
type cgNode struct {
	id   int
	fn   *types.Func   // nil for function literals
	decl *ast.FuncDecl // nil for function literals
	lit  *ast.FuncLit  // nil for declared functions
	pkg  *TypedPackage
	body *ast.BlockStmt
	name string // stable display name, e.g. "engine.(*Engine).TryBatch"

	cfg *funcCFG // built lazily by lockstate
}

// callGraph resolves call expressions to module function bodies. Four
// resolution strategies stack up:
//   - direct: package functions, concrete methods, called literals;
//   - CHA: interface method calls dispatch to every module type that
//     implements the interface (class-hierarchy analysis);
//   - func fields: a call through a func-typed struct field (the
//     engine.Hooks pattern) resolves to every value ever stored into
//     that field anywhere in the module;
//   - handed-in funcs: inside a type's methods, a call through a
//     func-typed local or parameter resolves to every function value
//     passed to that type's methods with an identical func type (the
//     event.Bus pattern: Tap stores observers in a slice, Publish calls
//     them through a range variable).
type callGraph struct {
	tm     *TypedModule
	nodes  []*cgNode
	byFunc map[*types.Func]*cgNode
	byLit  map[*ast.FuncLit]*cgNode

	fieldFuncs map[*types.Var][]*cgNode // func-typed field -> stored targets
	named      []namedInPkg             // all module named types, for CHA

	handedIn  map[*types.TypeName][]handedFunc  // type -> func values passed to its methods
	varCaller map[*ast.CallExpr]*types.TypeName // call through a func-typed variable -> its method's type
}

// handedFunc is one function value passed to a method: the parameter's
// func type and the bodies the argument denotes.
type handedFunc struct {
	typ     types.Type
	targets []*cgNode
}

type namedInPkg struct {
	n  *types.Named
	tp *TypedPackage
}

func buildCallGraph(tm *TypedModule) *callGraph {
	g := &callGraph{
		tm:         tm,
		byFunc:     make(map[*types.Func]*cgNode),
		byLit:      make(map[*ast.FuncLit]*cgNode),
		fieldFuncs: make(map[*types.Var][]*cgNode),
		handedIn:   make(map[*types.TypeName][]handedFunc),
		varCaller:  make(map[*ast.CallExpr]*types.TypeName),
	}
	for _, tp := range tm.List {
		scope := tp.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					g.named = append(g.named, namedInPkg{n: named, tp: tp})
				}
			}
		}
		for _, file := range tp.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					g.addDecl(tp, fd)
				}
			}
			tpLocal := tp
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					g.addLit(tpLocal, lit)
				}
				return true
			})
		}
	}
	// Second pass: index every value stored into a func-typed struct
	// field, module-wide. This is what connects e.hooks.Deliver(...) in
	// the engine back to wire.Region.deliver.
	for _, tp := range tm.List {
		for _, file := range tp.Files {
			g.indexFieldStores(tp, file)
			g.indexHandedIn(tp, file)
		}
	}
	return g
}

func (g *callGraph) addDecl(tp *TypedPackage, fd *ast.FuncDecl) {
	fn, _ := tp.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	node := &cgNode{
		id:   len(g.nodes),
		fn:   fn,
		decl: fd,
		pkg:  tp,
		body: fd.Body,
		name: funcDisplayName(fn),
	}
	g.nodes = append(g.nodes, node)
	g.byFunc[fn] = node
}

func (g *callGraph) addLit(tp *TypedPackage, lit *ast.FuncLit) {
	if g.byLit[lit] != nil {
		return
	}
	file, line, _ := tp.relPos(g.tm.Fset, lit.Pos())
	node := &cgNode{
		id:   len(g.nodes),
		lit:  lit,
		pkg:  tp,
		body: lit.Body,
		name: fmt.Sprintf("func@%s:%d", file, line),
	}
	g.nodes = append(g.nodes, node)
	g.byLit[lit] = node
}

func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), shortQualifier), name)
	}
	if pkg := fn.Pkg(); pkg != nil {
		name = pkg.Name() + "." + name
	}
	return name
}

func shortQualifier(p *types.Package) string { return p.Name() }

// nodeFor maps a types.Func to its body node, normalizing generic
// instantiations back to their declaration.
func (g *callGraph) nodeFor(fn *types.Func) *cgNode {
	if fn == nil {
		return nil
	}
	return g.byFunc[fn.Origin()]
}

// indexFieldStores records composite-literal entries and assignments
// that store a resolvable function value into a struct field.
func (g *callGraph) indexFieldStores(tp *TypedPackage, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				field, ok := tp.Info.Uses[key].(*types.Var)
				if !ok || !field.IsField() {
					continue
				}
				g.recordFieldStore(tp, field, kv.Value)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				s := tp.Info.Selections[sel]
				if s == nil || s.Kind() != types.FieldVal {
					continue
				}
				field, ok := s.Obj().(*types.Var)
				if !ok {
					continue
				}
				g.recordFieldStore(tp, field, n.Rhs[i])
			}
		}
		return true
	})
}

// indexHandedIn records, per receiver type, every function value passed
// to its methods and every call its methods make through a func-typed
// local or parameter: what connects Bus.Publish's tap calls back to the
// observers given to Bus.Tap.
func (g *callGraph) indexHandedIn(tp *TypedPackage, file *ast.File) {
	for _, decl := range file.Decls {
		var owner *types.TypeName
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
			if fn, ok := tp.Info.Defs[fd.Name].(*types.Func); ok {
				if n := derefNamed(fn.Type().(*types.Signature).Recv().Type()); n != nil {
					owner = n.Obj()
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				if v, ok := tp.Info.Uses[fun].(*types.Var); ok && owner != nil && isFuncType(v.Type()) {
					g.varCaller[call] = owner
				}
			case *ast.SelectorExpr:
				s := tp.Info.Selections[fun]
				if s == nil || s.Kind() != types.MethodVal || types.IsInterface(s.Recv()) || derefNamed(s.Recv()) == nil {
					return true
				}
				recv := derefNamed(s.Recv()).Obj()
				params := s.Obj().Type().(*types.Signature).Params()
				for i, arg := range call.Args {
					if i >= params.Len() || !isFuncType(params.At(i).Type()) {
						continue
					}
					if ts := g.funcValueTargets(tp, arg); len(ts) > 0 {
						g.handedIn[recv] = append(g.handedIn[recv], handedFunc{params.At(i).Type(), ts})
					}
				}
			}
			return true
		})
	}
}

func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// handedInTargets resolves a call through a func-typed variable of type
// typ made inside a method: every function value of an identical type
// passed to a method of the same receiver type.
func (g *callGraph) handedInTargets(call *ast.CallExpr, typ types.Type) []*cgNode {
	var out []*cgNode
	for _, h := range g.handedIn[g.varCaller[call]] {
		for _, t := range h.targets {
			if types.Identical(h.typ, typ) && !slices.Contains(out, t) {
				out = append(out, t)
			}
		}
	}
	return out
}

func (g *callGraph) recordFieldStore(tp *TypedPackage, field *types.Var, value ast.Expr) {
	if !isFuncType(field.Type()) {
		return
	}
	field = field.Origin()
	for _, t := range g.funcValueTargets(tp, value) {
		g.fieldFuncs[field] = append(g.fieldFuncs[field], t)
	}
}

// funcValueTargets resolves an expression used as a function value to
// the module bodies it can denote: a literal, a package function, or a
// method value.
func (g *callGraph) funcValueTargets(tp *TypedPackage, expr ast.Expr) []*cgNode {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		if n := g.byLit[e]; n != nil {
			return []*cgNode{n}
		}
	case *ast.Ident:
		if fn, ok := tp.Info.Uses[e].(*types.Func); ok {
			if n := g.nodeFor(fn); n != nil {
				return []*cgNode{n}
			}
		}
	case *ast.SelectorExpr:
		if s := tp.Info.Selections[e]; s != nil {
			switch s.Kind() {
			case types.MethodVal:
				if fn, ok := s.Obj().(*types.Func); ok {
					if n := g.nodeFor(fn); n != nil {
						return []*cgNode{n}
					}
				}
			case types.FieldVal:
				if field, ok := s.Obj().(*types.Var); ok {
					return g.fieldFuncs[field.Origin()]
				}
			}
		} else if fn, ok := tp.Info.Uses[e.Sel].(*types.Func); ok {
			if n := g.nodeFor(fn); n != nil {
				return []*cgNode{n}
			}
		}
	}
	return nil
}

// calleeFunc returns the static callee object of a call, if any —
// including interface methods and stdlib functions that have no module
// body. Analyzers use it to classify the callee; resolveCall to find
// bodies.
func calleeFunc(tp *TypedPackage, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := tp.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if s := tp.Info.Selections[fun]; s != nil {
			if fn, ok := s.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := tp.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeField returns the struct field a call dispatches through, when
// the call is through a func-typed field (e.g. e.hooks.Deliver(a)),
// along with the named struct type owning the field.
func calleeField(tp *TypedPackage, call *ast.CallExpr) (*types.Var, *types.Named) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s := tp.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, nil
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return nil, nil
	}
	return field.Origin(), derefNamed(s.Recv())
}

// resolveCall returns every module function body a call may reach.
func (g *callGraph) resolveCall(tp *TypedPackage, call *ast.CallExpr) []*cgNode {
	fun := ast.Unparen(call.Fun)
	// A conversion T(x) parses as a call; skip it.
	if tv, ok := tp.Info.Types[fun]; ok && tv.IsType() {
		return nil
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		if n := g.byLit[fun]; n != nil {
			return []*cgNode{n}
		}
		return nil
	case *ast.Ident:
		switch obj := tp.Info.Uses[fun].(type) {
		case *types.Func:
			if n := g.nodeFor(obj); n != nil {
				return []*cgNode{n}
			}
		case *types.Var:
			return g.handedInTargets(call, obj.Type())
		}
		return nil
	case *ast.SelectorExpr:
		s := tp.Info.Selections[fun]
		if s == nil {
			// Package-qualified call pkg.Func(...).
			if fn, ok := tp.Info.Uses[fun.Sel].(*types.Func); ok {
				if n := g.nodeFor(fn); n != nil {
					return []*cgNode{n}
				}
			}
			return nil
		}
		switch s.Kind() {
		case types.MethodVal:
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
				return g.implementersOf(iface, fn.Name())
			}
			if n := g.nodeFor(fn); n != nil {
				return []*cgNode{n}
			}
		case types.FieldVal:
			if field, ok := s.Obj().(*types.Var); ok {
				return g.fieldFuncs[field.Origin()]
			}
		}
	}
	return nil
}

// implementersOf is the CHA step: every module method m on a named type
// T (or *T) implementing iface, with a body in the module.
func (g *callGraph) implementersOf(iface *types.Interface, method string) []*cgNode {
	var out []*cgNode
	seen := make(map[*cgNode]bool)
	for _, ni := range g.named {
		if _, ok := ni.n.Underlying().(*types.Interface); ok {
			continue
		}
		ptr := types.NewPointer(ni.n)
		if !types.Implements(ni.n, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, ni.n.Obj().Pkg(), method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := g.nodeFor(fn); n != nil && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
