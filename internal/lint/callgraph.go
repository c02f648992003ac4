package lint

import (
	"fmt"
	"go/ast"
	"go/token"
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
	name string // stable display name, e.g. "engine.(*Engine).Tick"

	cfg *funcCFG // built lazily by lockstate
}

// sig is the node's signature; a declared generic function keeps its
// type parameters.
func (n *cgNode) sig() *types.Signature {
	if n.fn != nil {
		return n.fn.Type().(*types.Signature)
	}
	return n.pkg.Info.TypeOf(n.lit).(*types.Signature)
}

// callGraph resolves call expressions to module function bodies. A call
// of a package function, a concrete method or a literal has its one
// body; an interface method call dispatches to every module type that
// implements the interface (class-hierarchy analysis); any other call
// goes through a function value, and resolves to the bodies its slot
// may hold.
//
// Slots come from one flow-insensitive propagation over the whole
// module, grown to a fixpoint. A slot is a variable, parameter,
// receiver, function result or struct field, keyed by its *types.Var;
// fields key by Origin(), so they are instance-blind, like lock classes.
// A slice, map, channel, sync/atomic.Value or sync.Map shares one slot
// with its contents. Slots are fed by assignments, keyed and positional
// struct literals, element stores (s[i] = f, ch <- f, append, the
// atomic.Value and sync.Map stores), range, call arguments, receivers
// and return. So Bus.Publish's taps resolve to what Bus.Tap stored, and
// a handler sim.Engine.After only queues runs where the simulation
// calls it, not under the locks of the caller that scheduled it.
type callGraph struct {
	tm     *TypedModule
	nodes  []*cgNode
	byFunc map[*types.Func]*cgNode
	byLit  map[*ast.FuncLit]*cgNode
	named  []*types.Named                  // all module named types, for CHA
	cha    map[*ast.SelectorExpr][]*cgNode // interface method selector -> implementers

	holds map[*types.Var][]*cgNode // slot -> bodies it may hold
	flows []flow
	calls []flow // src is a call whose arguments feed its callees' parameters
}

// flow feeds slot dst the values of src, or its idx-th result when src
// is a call returning several.
type flow struct {
	tp  *TypedPackage
	dst *types.Var
	src ast.Expr
	idx int
}

func buildCallGraph(tm *TypedModule) *callGraph {
	g := &callGraph{
		tm:     tm,
		byFunc: make(map[*types.Func]*cgNode),
		byLit:  make(map[*ast.FuncLit]*cgNode),
		cha:    make(map[*ast.SelectorExpr][]*cgNode),
		holds:  make(map[*types.Var][]*cgNode),
	}
	for _, tp := range tm.List {
		scope := tp.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					g.named = append(g.named, named)
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
	for _, n := range g.nodes {
		g.collect(n.pkg, n.body, n.sig().Results())
	}
	for _, tp := range tm.List {
		for _, file := range tp.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					g.collect(tp, gd, nil)
				}
			}
		}
	}
	for grown := true; grown; {
		grown = false
		for _, f := range g.flows {
			grown = g.add(f.dst, g.valuesAt(f.tp, f.src, f.idx)) || grown
		}
		for _, c := range g.calls {
			call := c.src.(*ast.CallExpr)
			for _, t := range g.resolveCall(c.tp, call) {
				params := t.sig().Params()
				for i := 0; i < len(call.Args) && params.Len() > 0; i++ {
					p := params.At(min(i, params.Len()-1)) // a variadic tail is one slot
					grown = g.add(p.Origin(), g.values(c.tp, call.Args[i])) || grown
				}
			}
		}
	}
	return g
}

// collect records the flows of a function body with the given result
// slots, or of a package-level var declaration. A nested literal is a
// node of its own.
func (g *callGraph) collect(tp *TypedPackage, root ast.Node, results *types.Tuple) {
	feed := func(dst *types.Var, src ast.Expr, idx int) {
		if dst != nil {
			g.flows = append(g.flows, flow{tp, dst, src, idx})
		}
	}
	// pair feeds each of dsts from rhs, or from the results of one call.
	pair := func(dsts []*types.Var, rhs []ast.Expr) {
		for i, dst := range dsts {
			if len(rhs) == len(dsts) {
				feed(dst, rhs[i], 0)
			} else if len(rhs) == 1 {
				feed(dst, rhs[0], i)
			}
		}
	}
	var rets []*types.Var
	for i := 0; i < results.Len(); i++ {
		rets = append(rets, results.At(i).Origin())
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				pair(slotsOf(tp, n.Lhs), n.Rhs)
			}
		case *ast.ValueSpec:
			pair(slotsOf(tp, n.Names), n.Values)
		case *ast.ReturnStmt:
			pair(rets, n.Results)
		case *ast.RangeStmt:
			switch tp.Info.TypeOf(n.X).Underlying().(type) {
			case *types.Chan:
				feed(slotOf(tp, n.Key), n.X, 0)
			case *types.Signature: // a func iterator
			default:
				feed(slotOf(tp, n.Value), n.X, 0)
			}
		case *ast.SendStmt:
			feed(slotOf(tp, n.Chan), n.Value, 0)
		case *ast.CompositeLit:
			if st, ok := derefStruct(tp.Info.TypeOf(n).Underlying()); ok {
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						feed(tp.Info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin(), kv.Value, 0)
					} else {
						feed(st.Field(i).Origin(), elt, 0)
					}
				}
			}
		case *ast.SelectorExpr: // a method value or call binds its receiver
			if s := tp.Info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				for _, t := range g.methods(n, s) {
					if recv := t.sig().Recv(); recv != nil {
						feed(recv.Origin(), n.X, 0)
					}
				}
			}
		case *ast.CallExpr:
			g.calls = append(g.calls, flow{tp: tp, src: n})
			if isContainerOp(calleeFunc(tp, n)) {
				for _, arg := range n.Args {
					feed(slotOf(tp, ast.Unparen(n.Fun).(*ast.SelectorExpr).X), arg, 0)
				}
			}
		}
		return true
	})
}

// add joins ts into dst's slot and reports whether it grew.
func (g *callGraph) add(dst *types.Var, ts []*cgNode) bool {
	n := len(g.holds[dst])
	g.holds[dst] = union(g.holds[dst], ts)
	return len(g.holds[dst]) > n
}

func union(a, b []*cgNode) []*cgNode {
	for _, n := range b {
		if !slices.Contains(a, n) {
			a = append(a, n)
		}
	}
	return a
}

// slotOf names the slot an assignment to e writes: a variable or a
// field, or for an element store (s[i], *p) the container's own slot.
func slotOf(tp *TypedPackage, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := tp.Info.ObjectOf(e).(*types.Var); ok {
			return v.Origin()
		}
	case *ast.SelectorExpr:
		if s := tp.Info.Selections[e]; s == nil {
			return slotOf(tp, e.Sel) // package-qualified
		} else if s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var).Origin()
		}
	case *ast.IndexExpr:
		return slotOf(tp, e.X)
	case *ast.StarExpr:
		return slotOf(tp, e.X)
	}
	return nil
}

// slotsOf is slotOf of each of es.
func slotsOf[E ast.Expr](tp *TypedPackage, es []E) []*types.Var {
	out := make([]*types.Var, len(es))
	for i, e := range es {
		out[i] = slotOf(tp, e)
	}
	return out
}

// values returns the module bodies e may evaluate to or, for a
// container, hold.
func (g *callGraph) values(tp *TypedPackage, e ast.Expr) []*cgNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return []*cgNode{g.byLit[e]}
	case *ast.Ident:
		switch obj := tp.Info.Uses[e].(type) {
		case *types.Func:
			if n := g.nodeFor(obj); n != nil {
				return []*cgNode{n}
			}
		case *types.Var:
			return g.holds[obj.Origin()]
		}
	case *ast.SelectorExpr:
		s := tp.Info.Selections[e]
		switch {
		case s == nil:
			return g.values(tp, e.Sel) // package-qualified
		case s.Kind() == types.MethodVal:
			return g.methods(e, s)
		case s.Kind() == types.FieldVal:
			return g.holds[s.Obj().(*types.Var).Origin()]
		}
	case *ast.IndexExpr: // an element, or a generic instantiation
		return g.values(tp, e.X)
	case *ast.SliceExpr:
		return g.values(tp, e.X)
	case *ast.StarExpr:
		return g.values(tp, e.X)
	case *ast.UnaryExpr: // <-ch, &x
		return g.values(tp, e.X)
	case *ast.TypeAssertExpr:
		return g.values(tp, e.X)
	case *ast.CompositeLit:
		if _, ok := derefStruct(tp.Info.TypeOf(e).Underlying()); ok {
			return nil // its fields are slots of their own
		}
		var out []*cgNode
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out = union(out, g.values(tp, elt))
		}
		return out
	case *ast.CallExpr:
		return g.valuesAt(tp, e, 0)
	}
	return nil
}

// valuesAt is values for the idx-th result of a call; any other e has
// one value (the second of v, ok := m[k] holds no func).
func (g *callGraph) valuesAt(tp *TypedPackage, e ast.Expr, idx int) []*cgNode {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return g.values(tp, e)
	}
	var out []*cgNode
	switch fun := ast.Unparen(call.Fun); {
	case tp.Info.Types[fun].IsType(): // a conversion
		return g.values(tp, call.Args[0])
	case tp.Info.Types[fun].IsBuiltin(): // of which only append yields funcs
		if id, _ := fun.(*ast.Ident); id != nil && id.Name == "append" {
			for _, arg := range call.Args {
				out = union(out, g.values(tp, arg))
			}
		}
	case isContainerOp(calleeFunc(tp, call)):
		return g.values(tp, fun.(*ast.SelectorExpr).X)
	default:
		for _, t := range g.resolveCall(tp, call) {
			if res := t.sig().Results(); idx < res.Len() {
				out = union(out, g.holds[res.At(idx).Origin()])
			}
		}
	}
	return out
}

// isContainerOp reports a method of sync/atomic.Value or sync.Map: its
// arguments are stored in the receiver's slot, its results read from it.
func isContainerOp(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path, recv := fn.Pkg().Path(), receiverTypeName(fn)
	return path == "sync/atomic" && recv == "Value" || path == "sync" && recv == "Map"
}

// methods resolves a method selector: the concrete method's body, or
// for an interface method every module implementation (CHA).
func (g *callGraph) methods(sel *ast.SelectorExpr, s *types.Selection) []*cgNode {
	fn := s.Obj().(*types.Func)
	if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
		impls, ok := g.cha[sel]
		if !ok {
			impls = g.implementersOf(iface, fn.Name())
			g.cha[sel] = impls
		}
		return impls
	}
	if n := g.nodeFor(fn); n != nil {
		return []*cgNode{n}
	}
	return nil
}

// resolveCall returns every module function body a call may reach.
func (g *callGraph) resolveCall(tp *TypedPackage, call *ast.CallExpr) []*cgNode {
	return g.funcValues(tp, call.Fun)
}

// funcValues is values narrowed to the bodies whose signature matches
// e's func type: a slot of type any can hold funcs of several.
func (g *callGraph) funcValues(tp *TypedPackage, e ast.Expr) []*cgNode {
	want, ok := tp.Info.TypeOf(e).Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*cgNode
	for _, n := range g.values(tp, e) {
		sig := n.sig()
		if sig.TypeParams().Len() > 0 || sig.RecvTypeParams().Len() > 0 || types.Identical(want, sig) {
			out = append(out, n)
		}
	}
	return out
}

// runsHandedFuncs reports whether a call to fn is taken to run the func
// values handed to it at the call: fn is outside the module (sort.Slice,
// sync.Once.Do) and not a container store.
func (g *callGraph) runsHandedFuncs(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && g.tm.ByPath[fn.Pkg().Path()] == nil && !isContainerOp(fn)
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

// implementersOf is the CHA step: every module method m on a named type
// T (or *T) implementing iface, with a body in the module.
func (g *callGraph) implementersOf(iface *types.Interface, method string) []*cgNode {
	var out []*cgNode
	seen := make(map[*cgNode]bool)
	for _, named := range g.named {
		if _, ok := named.Underlying().(*types.Interface); ok {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
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
