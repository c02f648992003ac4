package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ClockTaint tracks wall-clock and unseeded-RNG values interprocedurally
// from their sources (time.Now/Since/Until/After/NewTicker..., global
// math/rand draws) into scheduling decision sinks: calls into the
// engine/sim/schedule packages, composite literals of their types, and
// assignments into their struct fields. The syntactic clockdiscipline
// analyzer catches a direct time.Now() in a swept package; this one
// catches the laundered version — a timestamp minted in cmd/ or wire/
// and handed across the boundary, which is exactly the flow that breaks
// byte-identical figs 5–10 replays.
//
// Taint propagates through function RETURNS (a function whose result
// derives from a source taints its callers) and through parameters only
// at the call site (a summary records whether params flow to results).
// Parameters are never assumed tainted inside a callee: that keeps a
// correctly seeded package (loadgen with a pinned -seed) from lighting
// up just because one caller defaults the seed to the wall clock — the
// finding lands at that caller's call site instead.
type ClockTaint struct {
	// SinkPrefixes are module-relative package prefixes whose functions,
	// types, and fields are decision sinks.
	SinkPrefixes []string
	// AllowPrefixes are packages exempt from reporting (examples are
	// end-user code wiring real deadlines on purpose).
	AllowPrefixes []string
	// SourceAllowPrefixes are packages where reading the wall clock is
	// sanctioned (the clock abstraction itself).
	SourceAllowPrefixes []string
}

// NewClockTaint returns the analyzer configured for REACT's layout.
func NewClockTaint() *ClockTaint {
	return &ClockTaint{
		SinkPrefixes: []string{
			"internal/engine", "internal/schedule", "internal/taskq",
			"internal/sim", "internal/experiments", "internal/matching",
			"internal/core", "internal/federation", "internal/loadgen",
			"internal/profile", "internal/crowd", "internal/workload",
		},
		AllowPrefixes:       []string{"examples"},
		SourceAllowPrefixes: []string{"internal/clock"},
	}
}

func (*ClockTaint) Name() string { return "clocktaint" }
func (*ClockTaint) Doc() string {
	return "interprocedural taint from wall-clock/unseeded-RNG sources into scheduling decision sinks"
}

var timeSourceFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

var randDrawFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Uint32": true, "Uint64": true, "Float32": true,
	"Float64": true, "ExpFloat64": true, "NormFloat64": true, "Perm": true,
}

type taintSummary struct {
	intrinsic  bool // result derives from a source regardless of inputs
	propagates bool // tainted arguments flow to the result
}

type taintState struct {
	a   *ClockTaint
	tm  *TypedModule
	g   *callGraph
	sup *suppressionSet // nil outside a Runner-driven pass

	summaries map[*types.Func]*taintSummary
	litSrc    map[*ast.FuncLit]bool // literal body reads a source directly
	envs      map[*cgNode]map[types.Object]bool
}

func (a *ClockTaint) RunTyped(p *TypedPass) {
	lf, err := p.TM.lockFactsFor()
	if err != nil {
		return
	}
	ts := &taintState{
		a: a, tm: p.TM, g: lf.graph, sup: p.sup,
		summaries: make(map[*types.Func]*taintSummary),
		litSrc:    make(map[*ast.FuncLit]bool),
		envs:      make(map[*cgNode]map[types.Object]bool),
	}
	for _, n := range ts.g.nodes {
		if n.fn != nil {
			ts.summaries[n.fn] = &taintSummary{}
		}
		if n.lit != nil {
			ts.litSrc[n.lit] = ts.litReadsSource(n)
		}
	}
	// Summary fixpoint: monotone in both bits, so iterate to stability.
	for round := 0; round < 32; round++ {
		changed := false
		for _, n := range ts.g.nodes {
			if n.fn == nil || n.decl == nil {
				continue
			}
			s := ts.summaries[n.fn]
			if !s.intrinsic {
				if ret, _ := ts.evalFunc(n, false); ret {
					s.intrinsic = true
					changed = true
				}
			}
			if !s.propagates {
				if ret, _ := ts.evalFunc(n, true); ret {
					s.propagates = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Final pass: stable environments for the sink scan.
	for _, n := range ts.g.nodes {
		if n.decl == nil {
			continue
		}
		_, env := ts.evalFunc(n, false)
		ts.envs[n] = env
	}
	ts.scanSinks(p)
}

// litReadsSource is the cheap classification used when a call resolves
// to a function literal: does its body read a source directly?
func (ts *taintState) litReadsSource(n *cgNode) bool {
	found := false
	ast.Inspect(n.lit.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok && ts.sourceCall(n.pkg, call) {
			found = true
		}
		return !found
	})
	return found
}

// sourceCall reports whether the call reads a wall-clock/unseeded-RNG
// source. A //lint:ignore clocktaint directive on the call's line (or
// the line above) sanctions the read — a sanctioned source does not
// taint its downstream flows, so an intentional wall measurement (e.g.
// engine's Elapsed accounting around the matcher call) does not cascade
// through every caller. Consulting the directive marks it used for
// staleness.
func (ts *taintState) sourceCall(tp *TypedPackage, call *ast.CallExpr) bool {
	fn := calleeFunc(tp, call)
	if fn == nil || !ts.isSource(tp, fn) {
		return false
	}
	return !ts.sanctioned(call.Pos())
}

func (ts *taintState) sanctioned(pos token.Pos) bool {
	if ts.sup == nil {
		return false
	}
	file, line, _ := ts.tm.relPosOf(pos)
	return ts.sup.covers(Finding{File: file, Line: line, Analyzer: "clocktaint"})
}

func (ts *taintState) isSource(tp *TypedPackage, fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	// Only package-level functions are sources: time.Time.After (a
	// method on an arbitrary timestamp) must not match time.After (a
	// wall-clock channel).
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	switch pkg.Path() {
	case "time":
		return timeSourceFuncs[fn.Name()] &&
			!underAny(tp.Pkg.RelPath, ts.a.SourceAllowPrefixes)
	case "math/rand":
		return randDrawFuncs[fn.Name()]
	}
	return false
}

// evalFunc runs the flow-insensitive taint environment for one declared
// function to a local fixpoint. Nested function literals share the
// environment (closure semantics) but their return statements do not
// count as the outer function's returns.
func (ts *taintState) evalFunc(n *cgNode, paramsTainted bool) (returns bool, env map[types.Object]bool) {
	env = make(map[types.Object]bool)
	tp := n.pkg
	var resultObjs []types.Object
	if ft := n.decl.Type; ft != nil {
		seed := func(fl *ast.FieldList, taint bool, results bool) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					if obj := tp.Info.Defs[name]; obj != nil {
						if taint {
							env[obj] = true
						}
						if results {
							resultObjs = append(resultObjs, obj)
						}
					}
				}
			}
		}
		seed(n.decl.Recv, paramsTainted, false)
		seed(ft.Params, paramsTainted, false)
		seed(ft.Results, false, true)
	}
	for iter := 0; iter < 10; iter++ {
		w := &taintWalker{ts: ts, tp: tp, env: env}
		w.walkBody(n.body)
		returns = returns || w.returns
		if !w.changed {
			break
		}
	}
	if !returns {
		for _, obj := range resultObjs {
			if env[obj] {
				returns = true
			}
		}
	}
	return returns, env
}

type taintWalker struct {
	ts      *taintState
	tp      *TypedPackage
	env     map[types.Object]bool
	changed bool
	returns bool
}

func (w *taintWalker) walkBody(body *ast.BlockStmt) {
	litDepth := 0
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				litDepth--
			}
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			litDepth++
		case *ast.AssignStmt:
			w.assign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			if len(n.Values) > 0 {
				w.assign(lhs, n.Values)
			}
		case *ast.RangeStmt:
			if w.taintOf(n.X) {
				w.setLHS(n.Key, true)
				w.setLHS(n.Value, true)
			}
		case *ast.ReturnStmt:
			if litDepth == 0 {
				for _, res := range n.Results {
					if w.taintOf(res) {
						w.returns = true
					}
				}
			}
		}
		return true
	})
}

func (w *taintWalker) assign(lhs, rhs []ast.Expr) {
	if len(lhs) == len(rhs) {
		for i := range lhs {
			w.setLHS(lhs[i], w.taintOf(rhs[i]))
		}
		return
	}
	if len(rhs) == 1 { // multi-value: x, y := f() / m[k] / <-ch
		t := w.taintOf(rhs[0])
		for _, l := range lhs {
			w.setLHS(l, t)
		}
	}
}

func (w *taintWalker) setLHS(e ast.Expr, taint bool) {
	if e == nil || !taint {
		return
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return // field/index writes are handled by the sink scan
	}
	obj := w.tp.Info.Defs[id]
	if obj == nil {
		obj = w.tp.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if !w.env[obj] {
		w.env[obj] = true
		w.changed = true
	}
}

// taintOf evaluates whether an expression's value may derive from a
// wall-clock or unseeded-RNG source.
func (w *taintWalker) taintOf(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.tp.Info.Uses[e]
		if obj == nil {
			obj = w.tp.Info.Defs[e]
		}
		return obj != nil && w.env[obj]
	case *ast.CallExpr:
		return w.callTaint(e)
	case *ast.SelectorExpr:
		return w.taintOf(e.X) // field read off a tainted value
	case *ast.UnaryExpr:
		return w.taintOf(e.X) // includes <-ch on a tainted channel
	case *ast.BinaryExpr:
		return w.taintOf(e.X) || w.taintOf(e.Y)
	case *ast.StarExpr:
		return w.taintOf(e.X)
	case *ast.IndexExpr:
		return w.taintOf(e.X)
	case *ast.SliceExpr:
		return w.taintOf(e.X)
	case *ast.TypeAssertExpr:
		return w.taintOf(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if w.taintOf(kv.Value) {
					return true
				}
			} else if w.taintOf(elt) {
				return true
			}
		}
	}
	return false
}

func (w *taintWalker) callTaint(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if tv, ok := w.tp.Info.Types[fun]; ok && tv.IsType() { // conversion
		if len(call.Args) == 1 {
			return w.taintOf(call.Args[0])
		}
		return false
	}
	if w.ts.sourceCall(w.tp, call) {
		return true
	}
	argT := false
	for _, arg := range call.Args {
		if w.taintOf(arg) {
			argT = true
			break
		}
	}
	if !argT {
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s := w.tp.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				argT = w.taintOf(sel.X) // method on a tainted receiver
			}
		}
	}
	targets := w.ts.g.resolveCall(w.tp, call)
	if len(targets) > 0 {
		for _, t := range targets {
			switch {
			case t.fn != nil:
				s := w.ts.summaries[t.fn]
				if s != nil && (s.intrinsic || (s.propagates && argT)) {
					return true
				}
			case t.lit != nil:
				if w.ts.litSrc[t.lit] || argT {
					return true
				}
			}
		}
		return false
	}
	// External or unresolvable callee: conservative passthrough.
	return argT
}

// ---------------------------------------------------------------------
// Sink scan

func (ts *taintState) scanSinks(p *TypedPass) {
	for _, n := range ts.g.nodes {
		if n.decl == nil {
			continue
		}
		if underAny(n.pkg.Pkg.RelPath, ts.a.AllowPrefixes) {
			continue
		}
		env := ts.envs[n]
		w := &taintWalker{ts: ts, tp: n.pkg, env: env}
		ast.Inspect(n.body, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.CallExpr:
				ts.checkCallSink(p, w, node)
			case *ast.CompositeLit:
				ts.checkLitSink(p, w, node)
			case *ast.AssignStmt:
				ts.checkFieldSink(p, w, node)
			}
			return true
		})
	}
}

// relOfModulePkg maps an import path to its module-relative form; ok is
// false for non-module packages.
func (ts *taintState) relOfModulePkg(path string) (string, bool) {
	if path == ts.tm.Mod.Path {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, ts.tm.Mod.Path+"/"); ok {
		return rest, true
	}
	return "", false
}

func (ts *taintState) sinkPkgPath(path string) bool {
	rel, ok := ts.relOfModulePkg(path)
	return ok && underAny(rel, ts.a.SinkPrefixes)
}

func (ts *taintState) checkCallSink(p *TypedPass, w *taintWalker, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := w.tp.Info.Types[fun]; ok && tv.IsType() {
		return
	}
	fn := calleeFunc(w.tp, call)
	// Unseeded-RNG seeding from the wall clock is a sink wherever it
	// appears: the resulting stream is unreproducible by construction.
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math/rand" &&
		(fn.Name() == "NewSource" || fn.Name() == "Seed") {
		for _, arg := range call.Args {
			if w.taintOf(arg) {
				p.Reportf("clocktaint", call.Pos(),
					"RNG seeded from a wall-clock-derived value (rand.%s); a run cannot be replayed", fn.Name())
				return
			}
		}
		return
	}
	sink := ""
	if fn != nil && fn.Pkg() != nil && ts.sinkPkgPath(fn.Pkg().Path()) {
		sink = funcDisplayName(fn)
	}
	if sink == "" {
		for _, t := range ts.g.resolveCall(w.tp, call) {
			if underAny(t.pkg.Pkg.RelPath, ts.a.SinkPrefixes) {
				sink = t.name
				break
			}
		}
	}
	if sink == "" {
		return
	}
	for i, arg := range call.Args {
		if w.taintOf(arg) {
			p.Reportf("clocktaint", call.Pos(),
				"wall-clock/RNG-derived value flows into scheduling sink %s (argument %d)", sink, i+1)
			return
		}
	}
}

func (ts *taintState) checkLitSink(p *TypedPass, w *taintWalker, cl *ast.CompositeLit) {
	named := derefNamed(typeOf(w.tp, cl))
	if named == nil || named.Obj().Pkg() == nil || !ts.sinkPkgPath(named.Obj().Pkg().Path()) {
		return
	}
	for _, elt := range cl.Elts {
		v := elt
		field := ""
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				field = id.Name
			}
		}
		if w.taintOf(v) {
			p.Reportf("clocktaint", v.Pos(),
				"wall-clock/RNG-derived value stored in %s literal (field %s)", typeKey(named), field)
			return
		}
	}
}

func (ts *taintState) checkFieldSink(p *TypedPass, w *taintWalker, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		s := w.tp.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			continue
		}
		owner := derefNamed(s.Recv())
		if owner == nil || owner.Obj().Pkg() == nil || !ts.sinkPkgPath(owner.Obj().Pkg().Path()) {
			continue
		}
		if w.taintOf(as.Rhs[i]) {
			p.Reportf("clocktaint", as.Rhs[i].Pos(),
				"wall-clock/RNG-derived value assigned to %s.%s", typeKey(owner), s.Obj().Name())
		}
	}
}
