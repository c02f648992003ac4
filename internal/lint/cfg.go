package lint

import (
	"go/ast"
	"go/token"
)

// The typed tier needs flow sensitivity for exactly one reason: patterns
// like wire.Server.Close — unlock, then block on a WaitGroup — are
// correct, and a flow-insensitive "function holds lock X somewhere"
// approximation would flag them. cfgBlock/funcCFG are a deliberately
// small basic-block CFG over statements: enough structure for a may-held
// lock dataflow with union joins, nothing more.

type cfgBlock struct {
	index int
	nodes []ast.Node // statements (and select/range markers) in order
	succs []*cfgBlock
}

type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock // sentinel; returns and final fallthrough edge here

	// comm marks statements that are select communication clauses: their
	// channel operation blocks (or not) as part of the enclosing select,
	// never on its own, so blockingunderlock must judge the SelectStmt
	// instead.
	comm map[ast.Stmt]bool
}

type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock

	// break/continue resolution: innermost-first stacks plus the label
	// (if any) attached to the enclosing for/switch/select statement.
	loops  []loopCtx
	labels map[string]*cfgBlock // goto targets
	gotos  []pendingGoto
}

type loopCtx struct {
	label     string
	brk       *cfgBlock // break target
	cont      *cfgBlock // continue target; nil for switch/select
	isLoop    bool
	savedCont bool
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{comm: make(map[ast.Stmt]bool)}, labels: make(map[string]*cfgBlock)}
	b.g.entry = b.newBlock()
	b.g.exit = &cfgBlock{index: -1}
	b.cur = b.g.entry
	b.stmtList(body.List)
	b.edge(b.cur, b.g.exit)
	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, target)
		} else {
			b.edge(pg.from, b.g.exit)
		}
	}
	b.g.exit.index = len(b.g.blocks)
	b.g.blocks = append(b.g.blocks, b.g.exit)
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	if from == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// startBlock seals cur with an edge into a fresh block and makes that
// the current block.
func (b *cfgBuilder) startBlock() *cfgBlock {
	blk := b.newBlock()
	b.edge(b.cur, blk)
	b.cur = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		blk := b.startBlock()
		b.labels[s.Label.Name] = blk
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Cond)
		cond := b.cur
		join := b.newBlock()

		b.cur = b.newBlock()
		b.edge(cond, b.cur)
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)

		if s.Else != nil {
			b.cur = b.newBlock()
			b.edge(cond, b.cur)
			b.stmt(s.Else, "")
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		header := b.startBlock()
		if s.Cond != nil {
			b.add(s.Cond)
		}
		exit := b.newBlock()
		b.edge(header, exit) // cond false (or break via exit)
		post := header
		if s.Post != nil {
			post = b.newBlock()
		}
		b.pushLoop(label, exit, post, true)
		b.cur = b.newBlock()
		b.edge(header, b.cur)
		b.stmtList(s.Body.List)
		if s.Post != nil {
			b.edge(b.cur, post)
			b.cur = post
			b.stmt(s.Post, "")
			b.edge(b.cur, header)
		} else {
			b.edge(b.cur, header)
		}
		b.popLoop()
		b.cur = exit

	case *ast.RangeStmt:
		header := b.startBlock()
		// The RangeStmt itself is the header node: a range over a
		// channel is a blocking receive the analyzers must see.
		b.add(s)
		exit := b.newBlock()
		b.edge(header, exit)
		b.pushLoop(label, exit, header, true)
		b.cur = b.newBlock()
		b.edge(header, b.cur)
		b.stmtList(s.Body.List)
		b.edge(b.cur, header)
		b.popLoop()
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, nil)

	case *ast.SelectStmt:
		// The SelectStmt node carries blocking semantics (unless it has
		// a default clause); keep it visible in the header block.
		b.add(s)
		b.caseClauses(s.Body.List, label, s)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findLoop(s.Label, false); t != nil {
				b.edge(b.cur, t.brk)
			} else {
				b.edge(b.cur, b.g.exit)
			}
			b.cur = b.newBlock()
		case token.CONTINUE:
			if t := b.findLoop(s.Label, true); t != nil {
				b.edge(b.cur, t.cont)
			} else {
				b.edge(b.cur, b.g.exit)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// caseClauses wires the fallthrough edge structurally.
		}

	default:
		// Straight-line statements: assignments, expression statements,
		// declarations, send, inc/dec, go, defer, empty.
		b.add(s)
	}
}

// caseClauses lowers the shared body shape of switch/type-switch/select:
// a header (the current block) branching to each clause, all clauses
// joining after. A switch without a default can skip every clause; a
// select without a default cannot, but modelling the extra edge only
// widens the may-held sets, which is safe.
func (b *cfgBuilder) caseClauses(clauses []ast.Stmt, label string, sel *ast.SelectStmt) {
	header := b.cur
	join := b.newBlock()
	b.pushLoop(label, join, nil, false)
	hasDefault := false
	var prevBody *cfgBlock // for fallthrough
	for _, c := range clauses {
		var body []ast.Stmt
		var comm ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			comm = c.Comm
			body = c.Body
		}
		blk := b.newBlock()
		b.edge(header, blk)
		if prevBody != nil {
			b.edge(prevBody, blk) // fallthrough from the previous clause
		}
		b.cur = blk
		if comm != nil {
			b.g.comm[comm] = true
			b.stmt(comm, "")
		}
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(body)
		if fallsThrough {
			prevBody = b.cur
		} else {
			prevBody = nil
			b.edge(b.cur, join)
		}
	}
	if !hasDefault || sel == nil {
		b.edge(header, join)
	}
	b.popLoop()
	b.cur = join
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *cfgBlock, isLoop bool) {
	b.loops = append(b.loops, loopCtx{label: label, brk: brk, cont: cont, isLoop: isLoop})
}

func (b *cfgBuilder) popLoop() {
	b.loops = b.loops[:len(b.loops)-1]
}

func (b *cfgBuilder) findLoop(label *ast.Ident, needLoop bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := &b.loops[i]
		if needLoop && !lc.isLoop {
			continue
		}
		if label == nil || lc.label == label.Name {
			return lc
		}
	}
	return nil
}
