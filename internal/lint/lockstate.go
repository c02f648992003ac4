package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The lock-state engine computes, for every call / lock-acquisition /
// blocking operation in the module, the set of lock classes that MAY be
// held when it executes. Two layers:
//
//  1. Per function: a forward may-held dataflow over the basic-block CFG
//     (union at joins). `defer mu.Unlock()` never kills, so a lock held
//     to function exit stays in the set; an explicit early Unlock kills
//     on that path only — which is what lets wire.Server.Close (unlock,
//     then WaitGroup.Wait) pass.
//  2. Across functions: a fixpoint propagating entry-held sets along
//     call edges — entry(callee) ⊇ entry(caller) ∪ heldAtSite. `go`
//     edges contribute nothing (a new goroutine starts lock-free);
//     deferred calls contribute the set held at registration.
//
// Lock identity is a "class", not an instance: every s.mu of every
// *engine.TaskStore is one class "engine.TaskStore.mu". That is exactly
// the granularity a lock-ordering convention is written at, and it makes
// striped locks (many instances, one class) analyzable. The
// instance-blind over-approximation is deliberate.

type lockClass struct {
	id  int
	key string // stable report key, e.g. "engine.Engine.batchMu"
}

type edgeKind int

const (
	edgeCall edgeKind = iota
	edgeGo
	edgeDefer
)

type acquireFact struct {
	node      *cgNode
	class     *lockClass
	read      bool // RLock
	pos       token.Pos
	localHeld []int
}

type callFact struct {
	node      *cgNode
	call      *ast.CallExpr
	pos       token.Pos
	kind      edgeKind
	localHeld []int
	targets   []*cgNode

	// Dispatch descriptors for analyzer-side classification.
	fn         *types.Func  // static callee, incl. interface/stdlib methods
	field      *types.Var   // set for calls through a func-typed struct field
	fieldOwner *types.Named // named struct type owning field
	funType    *types.Named // set when the callee expression has a named func type
}

type blockFact struct {
	node      *cgNode
	pos       token.Pos
	desc      string
	localHeld []int
}

type funcFacts struct {
	node     *cgNode
	acquires []*acquireFact
	calls    []*callFact
	blocks   []*blockFact
}

// entryProv remembers one example call edge that introduced a class into
// a function's entry set, for readable diagnostics.
type entryProv struct {
	caller *cgNode
	pos    token.Pos
}

type lockFacts struct {
	tm      *TypedModule
	graph   *callGraph
	classes []*lockClass
	byKey   map[string]*lockClass
	perFunc map[*cgNode]*funcFacts

	entry    map[*cgNode]map[int]bool
	entryWhy map[*cgNode]map[int]entryProv
}

func computeLockFacts(tm *TypedModule) (*lockFacts, error) {
	lf := &lockFacts{
		tm:       tm,
		graph:    buildCallGraph(tm),
		byKey:    make(map[string]*lockClass),
		perFunc:  make(map[*cgNode]*funcFacts),
		entry:    make(map[*cgNode]map[int]bool),
		entryWhy: make(map[*cgNode]map[int]entryProv),
	}
	var pending []syntheticEdge
	for _, n := range lf.graph.nodes {
		ff, syn := lf.analyzeFunc(n)
		lf.perFunc[n] = ff
		pending = append(pending, syn...)
	}
	// Closure values passed into module functions are assumed invoked by
	// the receiving function: attach a zero-local-held call fact to the
	// callee so entry-context still reaches the closure body.
	for _, se := range pending {
		ff := lf.perFunc[se.via]
		if ff == nil {
			continue
		}
		ff.calls = append(ff.calls, &callFact{
			node: se.via, pos: se.pos, kind: edgeCall, targets: se.targets,
		})
	}
	lf.solveEntry()
	return lf, nil
}

type syntheticEdge struct {
	via     *cgNode // module callee receiving the func value
	targets []*cgNode
	pos     token.Pos
}

func (lf *lockFacts) class(key string) *lockClass {
	if c, ok := lf.byKey[key]; ok {
		return c
	}
	c := &lockClass{id: len(lf.classes), key: key}
	lf.classes = append(lf.classes, c)
	lf.byKey[key] = c
	return c
}

// ---------------------------------------------------------------------
// Per-function analysis

type funcWalker struct {
	lf   *lockFacts
	node *cgNode
	tp   *TypedPackage
	cfg  *funcCFG
	held map[int]bool
	ff   *funcFacts
	syn  []syntheticEdge

	record bool // phase B: collect facts
}

func (lf *lockFacts) analyzeFunc(n *cgNode) (*funcFacts, []syntheticEdge) {
	if n.cfg == nil {
		n.cfg = buildCFG(n.body)
	}
	g := n.cfg
	in := make([]map[int]bool, len(g.blocks))
	for i := range in {
		in[i] = make(map[int]bool)
	}
	// Phase A: fixpoint on may-held sets. Blocks are few; iterate until
	// stable.
	w := &funcWalker{lf: lf, node: n, tp: n.pkg, cfg: g}
	for changed := true; changed; {
		changed = false
		for _, blk := range g.blocks {
			w.held = copySet(in[blk.index])
			for _, node := range blk.nodes {
				w.applyNode(node)
			}
			for _, succ := range blk.succs {
				for id := range w.held {
					if !in[succ.index][id] {
						in[succ.index][id] = true
						changed = true
					}
				}
			}
		}
	}
	// Phase B: one recording pass with the stable in-sets.
	w.record = true
	w.ff = &funcFacts{node: n}
	for _, blk := range g.blocks {
		w.held = copySet(in[blk.index])
		for _, node := range blk.nodes {
			w.applyNode(node)
		}
	}
	return w.ff, w.syn
}

func copySet(s map[int]bool) map[int]bool {
	out := make(map[int]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (w *funcWalker) heldSnapshot() []int {
	out := make([]int, 0, len(w.held))
	for id := range w.held {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// applyNode runs the transfer function for one CFG node: lock/unlock
// effects mutate w.held; in record mode, call/acquire/blocking facts are
// collected with the held set current at that point.
func (w *funcWalker) applyNode(node ast.Node) {
	switch s := node.(type) {
	case *ast.DeferStmt:
		w.applyDefer(s)
	case *ast.GoStmt:
		w.applyGo(s)
	case *ast.RangeStmt:
		// Header node: only the range operand belongs here; the body is
		// its own set of blocks.
		w.walkExpr(s.X, false)
		if w.record && isChanType(w.tp, s.X) {
			w.blocking(s.X.Pos(), "range over channel")
		}
	case *ast.SelectStmt:
		if w.record && !selectHasDefault(s) {
			w.blocking(s.Pos(), "select without default")
		}
	case *ast.SendStmt:
		w.walkExpr(s.Chan, false)
		w.walkExpr(s.Value, false)
		if w.record && !w.cfg.comm[s] {
			w.blocking(s.Arrow, "channel send")
		}
	default:
		comm := false
		if stmt, ok := node.(ast.Stmt); ok {
			comm = w.cfg.comm[stmt]
		}
		w.walkNode(node, comm)
	}
}

func (w *funcWalker) applyDefer(s *ast.DeferStmt) {
	call := s.Call
	if cls, _, release, _ := w.lf.lockOp(w.tp, call); cls != nil {
		// A deferred Unlock runs at exit: it never kills mid-function,
		// which is exactly the hold-to-exit semantics we want. A
		// deferred Lock is nonsense; ignore both.
		_ = release
		return
	}
	// Arguments are evaluated at registration time, synchronously.
	for _, arg := range call.Args {
		w.walkNode(arg, false)
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// defer func() { ... }(): body runs at exit; approximate the
		// held set with the registration-point set.
		if w.record {
			if n := w.lf.graph.byLit[fl]; n != nil {
				w.ff.calls = append(w.ff.calls, &callFact{
					node: w.node, call: call, pos: call.Pos(), kind: edgeDefer,
					localHeld: w.heldSnapshot(), targets: []*cgNode{n},
				})
			}
		}
		return
	}
	if w.record {
		w.recordCall(call, edgeDefer)
	}
}

func (w *funcWalker) applyGo(s *ast.GoStmt) {
	call := s.Call
	for _, arg := range call.Args {
		w.walkNode(arg, false) // args evaluate synchronously
	}
	if w.record {
		w.recordCall(call, edgeGo)
	}
}

// walkNode inspects a statement or expression in evaluation order,
// pruning nested function literals (they are separate call-graph nodes).
func (w *funcWalker) walkNode(node ast.Node, comm bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// Nested inside a recorded statement shouldn't happen (the
			// CFG lowers them), but guard anyway.
			w.applyGo(n)
			return false
		case *ast.DeferStmt:
			w.applyDefer(n)
			return false
		case *ast.CallExpr:
			w.handleCall(n)
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && w.record && !comm {
				w.blocking(n.Pos(), "channel receive")
			}
		case *ast.SendStmt:
			if w.record && !comm {
				w.blocking(n.Arrow, "channel send")
			}
		}
		return true
	})
}

func (w *funcWalker) walkExpr(e ast.Expr, comm bool) {
	if e != nil {
		w.walkNode(e, comm)
	}
}

func (w *funcWalker) blocking(pos token.Pos, desc string) {
	w.ff.blocks = append(w.ff.blocks, &blockFact{
		node: w.node, pos: pos, desc: desc, localHeld: w.heldSnapshot(),
	})
}

func (w *funcWalker) handleCall(call *ast.CallExpr) {
	if cls, acquire, release, read := w.lf.lockOp(w.tp, call); cls != nil {
		if acquire {
			if w.record {
				w.ff.acquires = append(w.ff.acquires, &acquireFact{
					node: w.node, class: cls, read: read, pos: call.Pos(),
					localHeld: w.heldSnapshot(),
				})
			}
			w.held[cls.id] = true
		}
		if release {
			delete(w.held, cls.id)
		}
		return
	}
	if !w.record {
		return
	}
	w.recordCall(call, edgeCall)
}

func (w *funcWalker) recordCall(call *ast.CallExpr, kind edgeKind) {
	tp, lf := w.tp, w.lf
	fn := calleeFunc(tp, call)
	targets := lf.graph.resolveCall(tp, call)
	var funType *types.Named
	if tv, ok := tp.Info.Types[ast.Unparen(call.Fun)]; ok && !tv.IsType() {
		if named, ok := tv.Type.(*types.Named); ok {
			if _, isSig := named.Underlying().(*types.Signature); isSig {
				funType = named
			}
		}
	}
	snapshot := w.heldSnapshot()
	field, fieldOwner := calleeField(tp, call)
	w.ff.calls = append(w.ff.calls, &callFact{
		node: w.node, call: call, pos: call.Pos(), kind: kind,
		localHeld: snapshot, targets: targets,
		fn: fn, field: field, fieldOwner: fieldOwner, funType: funType,
	})
	if desc := blockingCallDesc(fn); desc != "" {
		w.blocking(call.Pos(), desc)
	}
	// Function values passed as arguments: if the callee is a module
	// function, assume it may invoke them (entry context flows through
	// the callee) unless it only stores them (see storedFields); if
	// external (sort.Slice, sync.Once.Do), assume a synchronous
	// invocation right here.
	for i, arg := range call.Args {
		ts := lf.graph.funcValueTargets(tp, arg)
		if len(ts) == 0 {
			continue
		}
		if kind == edgeGo && len(targets) == 0 {
			continue // closure handed to a goroutine-spawning external call
		}
		if len(targets) > 0 {
			for _, t := range targets {
				if lf.graph.storedFields(t, i) == nil {
					w.syn = append(w.syn, syntheticEdge{via: t, targets: ts, pos: call.Pos()})
				}
			}
		} else {
			w.ff.calls = append(w.ff.calls, &callFact{
				node: w.node, call: call, pos: call.Pos(), kind: kind,
				localHeld: snapshot, targets: ts,
			})
		}
	}
}

// ---------------------------------------------------------------------
// Lock-operation classification

var lockMethods = map[string][2]bool{ // name -> {acquire, read}
	"Lock":    {true, false},
	"RLock":   {true, true},
	"Unlock":  {false, false},
	"RUnlock": {false, true},
}

func (lf *lockFacts) lockOp(tp *TypedPackage, call *ast.CallExpr) (cls *lockClass, acquire, release, read bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false, false, false
	}
	mode, known := lockMethods[sel.Sel.Name]
	if !known {
		return nil, false, false, false
	}
	s := tp.Info.Selections[sel]
	if s == nil {
		return nil, false, false, false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false, false
	}
	key := lf.classKey(tp, sel.X, s)
	if key == "" {
		return nil, false, false, false
	}
	c := lf.class(key)
	if mode[0] {
		return c, true, false, mode[1]
	}
	return c, false, true, mode[1]
}

// classKey names the lock class a receiver expression denotes. Struct
// fields key as "pkg.Type.field" (instance-blind); package-level vars as
// "pkg.var"; locals as "local:func.name". Embedded sync.Mutex promotion
// (m.Lock() on a type embedding Mutex) resolves through the selection's
// field index path.
func (lf *lockFacts) classKey(tp *TypedPackage, recv ast.Expr, s *types.Selection) string {
	recv = ast.Unparen(recv)
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = ast.Unparen(star.X)
	}
	// Promoted method: m.Lock() where the receiver type embeds the
	// mutex. Index() is the field path plus the method index.
	if idx := s.Index(); len(idx) > 1 {
		if named := derefNamed(typeOf(tp, recv)); named != nil {
			parts := []string{typeKey(named)}
			cur := named.Underlying()
			for _, i := range idx[:len(idx)-1] {
				st, ok := derefStruct(cur)
				if !ok || i >= st.NumFields() {
					break
				}
				f := st.Field(i)
				parts = append(parts, f.Name())
				cur = f.Type().Underlying()
			}
			return strings.Join(parts, ".")
		}
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		if fs := tp.Info.Selections[r]; fs != nil && fs.Kind() == types.FieldVal {
			if named := derefNamed(fs.Recv()); named != nil {
				return typeKey(named) + "." + fs.Obj().Name()
			}
		}
		if v, ok := tp.Info.Uses[r.Sel].(*types.Var); ok && v.Pkg() != nil && !v.IsField() {
			if v.Parent() == v.Pkg().Scope() {
				return pathBase(v.Pkg().Path()) + "." + v.Name()
			}
		}
	case *ast.Ident:
		if v, ok := tp.Info.Uses[r].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return pathBase(v.Pkg().Path()) + "." + v.Name()
			}
			// Local variable or parameter holding a mutex directly (not
			// a pointer into a struct we can name): function-scoped.
			if named := derefNamed(v.Type()); named != nil &&
				named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
				return typeKey(named)
			}
			// Key by the variable's DECLARATION position, not the use
			// site: every Lock/Unlock on the same local must share one
			// class or the unlock never kills the lock.
			return "local:" + lf.ownerName(tp, v.Pos()) + "." + v.Name()
		}
	}
	return "local:" + lf.ownerName(tp, recv.Pos()) + "." + types.ExprString(recv)
}

// ownerName gives a stable scope name for function-local lock classes.
func (lf *lockFacts) ownerName(tp *TypedPackage, pos token.Pos) string {
	file, line, _ := tp.relPos(lf.tm.Fset, pos)
	return fmt.Sprintf("%s:%d", file, line)
}

func typeOf(tp *TypedPackage, e ast.Expr) types.Type {
	if tv, ok := tp.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	st, ok := t.(*types.Struct)
	return st, ok
}

func typeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return pathBase(obj.Pkg().Path()) + "." + obj.Name()
}

func pathBase(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// ---------------------------------------------------------------------
// Blocking-call classification

var netBlocking = map[string]bool{
	"Read": true, "Write": true, "Accept": true, "Dial": true,
	"DialTimeout": true, "ReadFrom": true, "WriteTo": true,
}
var bufioBlocking = map[string]bool{
	"Read": true, "ReadByte": true, "ReadRune": true, "ReadString": true,
	"ReadBytes": true, "ReadLine": true, "ReadSlice": true, "Scan": true,
	"Write": true, "WriteByte": true, "WriteRune": true, "WriteString": true,
	"Flush": true, "Peek": true,
}
var ioBlocking = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true,
	"ReadFull": true, "WriteString": true, "Read": true, "Write": true,
}
var httpBlocking = map[string]bool{
	"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true,
	"ListenAndServe": true, "Serve": true,
}

// blockingCallDesc classifies calls that can block indefinitely (or for
// a scheduling-relevant duration) and therefore must not run under a
// mutex. sync.Cond.Wait is exempt: it releases its mutex while parked.
func blockingCallDesc(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	recv := receiverTypeName(fn)
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case path == "sync" && name == "Wait" && recv != "Cond":
		return "sync." + recv + ".Wait"
	case strings.HasSuffix(path, "internal/clock") && name == "Sleep":
		return "clock.Sleep"
	case (path == "net" || strings.HasPrefix(path, "net/") && path != "net/url") && netBlocking[name]:
		return qualifiedName(path, recv, name)
	case (path == "encoding/json" || path == "encoding/gob") && (name == "Encode" || name == "Decode"):
		return qualifiedName(path, recv, name) + " (stream I/O)"
	case path == "bufio" && bufioBlocking[name]:
		return qualifiedName(path, recv, name)
	case path == "io" && ioBlocking[name]:
		return qualifiedName(path, recv, name)
	case path == "net/http" && httpBlocking[name]:
		return qualifiedName(path, recv, name)
	}
	return ""
}

func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := derefNamed(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

func qualifiedName(path, recv, name string) string {
	base := pathBase(path)
	if recv != "" {
		return base + "." + recv + "." + name
	}
	return base + "." + name
}

func isChanType(tp *TypedPackage, e ast.Expr) bool {
	t := typeOf(tp, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Interprocedural entry solution

func (lf *lockFacts) solveEntry() {
	for _, n := range lf.graph.nodes {
		lf.entry[n] = make(map[int]bool)
		lf.entryWhy[n] = make(map[int]entryProv)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range lf.graph.nodes {
			ff := lf.perFunc[n]
			if ff == nil {
				continue
			}
			base := lf.entry[n]
			for _, cf := range ff.calls {
				if cf.kind == edgeGo || len(cf.targets) == 0 {
					continue
				}
				for _, t := range cf.targets {
					te := lf.entry[t]
					add := func(id int) {
						if !te[id] {
							te[id] = true
							lf.entryWhy[t][id] = entryProv{caller: n, pos: cf.pos}
							changed = true
						}
					}
					for id := range base {
						add(id)
					}
					for _, id := range cf.localHeld {
						add(id)
					}
				}
			}
		}
	}
}

// finalHeld is the full may-held set at a fact site: locally tracked
// locks plus everything that may be held on entry to the function.
func (lf *lockFacts) finalHeld(n *cgNode, localHeld []int) []int {
	set := make(map[int]bool, len(localHeld))
	for _, id := range localHeld {
		set[id] = true
	}
	for id := range lf.entry[n] {
		set[id] = true
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// heldDescription renders a held set with provenance: lock names plus,
// for entry-inherited locks, the example caller chain edge.
func (lf *lockFacts) heldDescription(n *cgNode, held []int, localHeld []int) string {
	local := make(map[int]bool, len(localHeld))
	for _, id := range localHeld {
		local[id] = true
	}
	parts := make([]string, 0, len(held))
	for _, id := range held {
		name := lf.classes[id].key
		if !local[id] {
			if prov, ok := lf.entryWhy[n][id]; ok {
				file, line, _ := lf.tm.relPosOf(prov.pos)
				name += fmt.Sprintf(" (held by caller %s at %s:%d)", prov.caller.name, file, line)
			}
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, ", ")
}
