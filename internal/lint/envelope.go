package lint

import (
	"go/ast"
	"go/types"
)

// Envelope protects the one error-body contract of the wire protocol:
// every non-2xx response is {"error":{"code","message"}} with a
// machine-readable code (see repro/api). Inside the two packages that
// render HTTP responses — internal/server and internal/proxy — calling
// http.Error or fmt.Fprint* on a ResponseWriter ships a free-text body
// that no client can branch on and that breaks the byte-identity
// guarantees the replica and alias tests pin. Errors must go through the
// api envelope helpers (wire.WriteErr over api.Errorf).
var Envelope = &Analyzer{
	Name: "envelope",
	Doc: "report http.Error / fmt.Fprint* error rendering on ResponseWriters in internal/server " +
		"and internal/proxy; non-2xx bodies must be the api error envelope",
	Run: runEnvelope,
}

// fprinters are the fmt functions whose first argument is the
// destination writer.
var fprinters = map[string]bool{
	"fmt.Fprintf":  true,
	"fmt.Fprint":   true,
	"fmt.Fprintln": true,
}

func runEnvelope(pass *Pass) {
	if !pkgIn(pass, pkgServer, pkgProxy) {
		return
	}
	rw := responseWriterIface(pass.Pkg)
	sup := newSuppressor(pass)
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch name := calleeName(pass, call); {
			case name == "net/http.Error":
				sup.report(call.Pos(),
					"http.Error writes a free-text body: render errors through the api envelope (wire.WriteErr / api.Errorf)")
			case fprinters[name] && len(call.Args) > 0 && writesToResponseWriter(pass, rw, call.Args[0]):
				sup.report(call.Pos(),
					"%s onto an http.ResponseWriter bypasses the api envelope: render responses through the api types (wire.WriteJSON / wire.WriteErr)", name)
			}
			return true
		})
	}
}

// responseWriterIface finds net/http.ResponseWriter among the package's
// imports, or nil when net/http is not imported (then nothing in the
// package can hold one under a concrete http type anyway).
func responseWriterIface(pkg *types.Package) *types.Interface {
	for _, imp := range pkg.Imports() {
		if imp.Path() != "net/http" {
			continue
		}
		obj := imp.Scope().Lookup("ResponseWriter")
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}

// writesToResponseWriter reports whether arg's static type satisfies
// http.ResponseWriter.
func writesToResponseWriter(pass *Pass, rw *types.Interface, arg ast.Expr) bool {
	if rw == nil {
		return false
	}
	t := pass.TypesInfo.TypeOf(arg)
	if t == nil {
		return false
	}
	return types.Implements(t, rw)
}
