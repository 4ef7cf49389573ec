package lint

import (
	"go/ast"
	"go/types"
)

// CtxFirst pins the cancellation discipline of the I/O-performing
// packages (client, internal/proxy, internal/replica): an exported
// function or method that accepts a context.Context takes it as the
// first parameter — the shape every caller in the repo already relies
// on — and nothing mid-path manufactures its own context.Background()/
// context.TODO(), which would detach the call from the caller's
// deadline and make hedging, failover, and shutdown uncancellable.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc: "report exported functions in client/internal/proxy/internal/replica whose " +
		"context.Context parameter is not first, and mid-path context.Background()/TODO() calls",
	Run: runCtxFirst,
}

func runCtxFirst(pass *Pass) {
	if !pkgIn(pass, pkgClient, pkgProxy, pkgReplica) {
		return
	}
	sup := newSuppressor(pass)
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxPosition(pass, sup, n)
			case *ast.CallExpr:
				switch name := calleeName(pass, n); name {
				case "context.Background", "context.TODO":
					sup.report(n.Pos(),
						"%s() mid-path detaches the call from the caller's deadline: accept and propagate a context.Context parameter", name)
				}
			}
			return true
		})
	}
}

// checkCtxPosition flags an exported function whose context.Context
// parameter sits anywhere but position 0.
func checkCtxPosition(pass *Pass, sup *suppressor, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() || fn.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fn.Type.Params.List {
		// A field may declare several names ("a, b int"); each occupies
		// its own parameter position.
		width := len(field.Names)
		if width == 0 {
			width = 1 // unnamed parameter
		}
		if isContextType(pass.TypesInfo.TypeOf(field.Type)) && pos != 0 {
			sup.report(field.Pos(),
				"context.Context must be the first parameter of exported %s so every caller threads cancellation the same way", fn.Name.Name)
			return
		}
		pos += width
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
