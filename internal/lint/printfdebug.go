package lint

import "go/ast"

// PrintfDebug forbids fmt.Print* and log.* output in internal/
// packages. The middleware's observable surface is internal/metrics and
// the internal/event spine — structured, deterministic, assertable in
// tests. A stray fmt.Println in a server loop interleaves
// nondeterministically with real output, corrupts the byte-identical
// reports reactsim promises, and is invisible to every spine consumer.
//
// Test files are exempt: Example tests require fmt output by contract.
// cmd/ and examples/ are user-facing programs and print freely.
type PrintfDebug struct{}

var forbiddenPrintFuncs = map[string]map[string]bool{
	"fmt": {
		"Print": true, "Printf": true, "Println": true,
	},
	"log": {
		"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
	},
}

func (PrintfDebug) Name() string { return "printfdebug" }
func (PrintfDebug) Doc() string {
	return "forbid fmt.Print*/log.* in internal/; route output through internal/metrics or the internal/event spine"
}

func (d PrintfDebug) Run(p *Pass) {
	if !inInternal(p.Pkg.RelPath) {
		return
	}
	eachSourceFile(p.Pkg, false, func(f *File) {
		names := make(map[string]map[string]bool) // local import name → forbidden funcs
		for path, funcs := range map[string]map[string]bool{"fmt": forbiddenPrintFuncs["fmt"], "log": forbiddenPrintFuncs["log"]} {
			if name, ok := importLocalName(f.AST, path); ok {
				names[name] = funcs
			}
		}
		if len(names) == 0 {
			return
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if funcs, ok := names[id.Name]; ok && funcs[sel.Sel.Name] {
				p.Reportf(d.Name(), call.Pos(),
					"%s.%s writes unstructured output from the middleware; use internal/metrics or the internal/event spine",
					id.Name, sel.Sel.Name)
			}
			return true
		})
	})
}
