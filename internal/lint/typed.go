package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// TypedPackage is one module package after type checking. Only non-test
// files participate: the typed tier reasons about the production lock
// graph and dataflow, and test files routinely hold locks or read wall
// clocks in ways that are fine in a test harness.
type TypedPackage struct {
	Pkg   *Package
	Types *types.Package
	Info  *types.Info
	Files []*ast.File // non-test files, in Pkg.Files order
}

// relPos rewrites a token position to a module-relative file path, so
// typed findings match the syntactic tier's stable path convention.
func (tp *TypedPackage) relPos(fset *token.FileSet, pos token.Pos) (file string, line, col int) {
	p := fset.Position(pos)
	return tp.Pkg.relFile(p.Filename), p.Line, p.Column
}

// TypedModule is the whole module after type checking: shared FileSet,
// one TypedPackage per module package that has non-test files, and the
// lazily computed dataflow facts shared by the typed analyzers.
type TypedModule struct {
	Mod  *Module
	Fset *token.FileSet

	ByPath map[string]*TypedPackage
	List   []*TypedPackage // sorted by import path

	factsOnce sync.Once
	facts     *lockFacts
	factsErr  error
}

// relPosOf locates pos in whichever package owns the file, falling back
// to a root-relative path. Typed analyzers report across package
// boundaries (a lock acquired in engine, held into event), so position
// rendering cannot assume the reporting package owns the file.
func (tm *TypedModule) relPosOf(pos token.Pos) (file string, line, col int) {
	p := tm.Fset.Position(pos)
	file = p.Filename
	if rel, ok := strings.CutPrefix(file, tm.Mod.Root+"/"); ok {
		file = rel
	}
	return file, p.Line, p.Column
}

// typeLoader type-checks module packages on demand, recursively, from
// the ASTs LoadModule already parsed. Module-internal imports resolve
// through the loader itself; everything else (the standard library)
// resolves through the source importer, which compiles stdlib packages
// from source — no export data, no toolchain invocation, stdlib-only.
type typeLoader struct {
	mod  *Module
	fset *token.FileSet
	std  types.Importer

	pkgs    map[string]*TypedPackage
	loading map[string]bool
	errs    []error
}

func (l *typeLoader) Import(path string) (*types.Package, error) {
	if path == l.mod.Path || strings.HasPrefix(path, l.mod.Path+"/") {
		tp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if tp == nil {
			return nil, fmt.Errorf("lint: no buildable package %q in module", path)
		}
		return tp.Types, nil
	}
	return l.std.Import(path)
}

func (l *typeLoader) load(path string) (*TypedPackage, error) {
	if tp, ok := l.pkgs[path]; ok {
		return tp, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	var pkg *Package
	for _, p := range l.mod.Packages {
		if p.Path == path {
			pkg = p
			break
		}
	}
	if pkg == nil {
		l.pkgs[path] = nil
		return nil, nil
	}
	var files []*ast.File
	for _, f := range pkg.Files {
		if !f.Test {
			files = append(files, f.AST)
		}
	}
	if len(files) == 0 {
		l.pkgs[path] = nil // test-only directory: no production compile unit
		return nil, nil
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			l.errs = append(l.errs, err)
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	tp := &TypedPackage{Pkg: pkg, Types: tpkg, Info: info, Files: files}
	l.pkgs[path] = tp
	return tp, nil
}

// TypeCheck type-checks every package of mod and returns the typed view.
// A module that does not compile is a hard error: the typed analyzers
// would otherwise reason from partial type information and report
// nonsense.
func TypeCheck(mod *Module) (*TypedModule, error) {
	l := &typeLoader{
		mod:     mod,
		fset:    mod.Fset,
		std:     importer.ForCompiler(mod.Fset, "source", nil),
		pkgs:    make(map[string]*TypedPackage),
		loading: make(map[string]bool),
	}
	for _, pkg := range mod.Packages {
		if _, err := l.load(pkg.Path); err != nil {
			return nil, err
		}
	}
	if len(l.errs) > 0 {
		max := len(l.errs)
		if max > 5 {
			max = 5
		}
		msgs := make([]string, 0, max)
		for _, e := range l.errs[:max] {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type check failed (%d errors):\n  %s",
			len(l.errs), strings.Join(msgs, "\n  "))
	}
	tm := &TypedModule{Mod: mod, Fset: mod.Fset, ByPath: make(map[string]*TypedPackage)}
	for path, tp := range l.pkgs {
		if tp == nil {
			continue
		}
		tm.ByPath[path] = tp
		tm.List = append(tm.List, tp)
	}
	sort.Slice(tm.List, func(i, j int) bool { return tm.List[i].Pkg.Path < tm.List[j].Pkg.Path })
	return tm, nil
}

// lockFactsFor computes (once) the shared dataflow facts every typed
// analyzer consumes: call graph, per-function CFGs, and the
// interprocedural held-lock solution.
func (tm *TypedModule) lockFactsFor() (*lockFacts, error) {
	tm.factsOnce.Do(func() {
		tm.facts, tm.factsErr = computeLockFacts(tm)
	})
	return tm.facts, tm.factsErr
}
