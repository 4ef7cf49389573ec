// Package lint is the repo's project-specific analyzer suite: every
// load-bearing convention that earlier PRs enforced by review (versioned
// paths live only in api, durable files go through internal/atomicfile,
// metric names are literal and cardinality-bounded, handlers render
// errors through the api envelope, exported I/O takes a leading context,
// serving code never sleep-polls) is an Analyzer here, run by
// cmd/semproxlint under `make lint` and CI. The framework is the
// standard library's: Run parses and type-checks one package with
// go/types and hands each analyzer a Pass.
//
// Suppression: a finding can be silenced with a
//
//	//lint:semprox-allow <justification>
//
// comment on the offending line or the line directly above it. The
// justification is mandatory — an allow comment without one is itself
// reported — so every suppression carries its reason in the diff, the
// same way the DESIGN.md prose used to.
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named rule: Run inspects a type-checked package
// and reports what breaks the rule through Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass is one type-checked package as the analyzers see it, and
// collects what they report.
type Pass struct {
	Fset        *token.FileSet
	Files       []*ast.File
	Pkg         *types.Package
	TypesInfo   *types.Info
	Diagnostics []Diagnostic

	analyzer string // the one running, for Reportf
}

// Reportf records a finding of the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Diagnostics = append(p.Diagnostics, Diagnostic{pos, p.analyzer, fmt.Sprintf(format, args...)})
}

// Run parses filenames as the package at import path, type-checks it
// against imp and applies the analyzers in order. It is the one loading
// step cmd/semproxlint and linttest share. A parse or type error is
// returned with no analyzer run: the rules read types, and a package
// that does not compile has none to trust.
func Run(fset *token.FileSet, path string, filenames []string, imp types.Importer, analyzers ...*Analyzer) (*Pass, error) {
	pass := &Pass{Fset: fset, TypesInfo: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	var errs []error
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		pass.Files = append(pass.Files, f)
	}
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
	pass.Pkg, _ = conf.Check(path, fset, pass.Files, pass.TypesInfo)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	for _, a := range analyzers {
		pass.analyzer = a.Name
		a.Run(pass)
	}
	return pass, nil
}

// Analyzers returns the full suite in a stable order; cmd/semproxlint
// runs exactly this slice, so adding an analyzer here is all it takes
// to put a new invariant under CI.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		RawPath,
		AtomicWrite,
		MetricName,
		Envelope,
		CtxFirst,
		SleepWait,
	}
}

// Package paths the analyzers scope their rules by. Test variants
// ("repro/api_test" external test packages) normalize to the same path.
const (
	pkgAPI        = "repro/api"
	pkgClient     = "repro/client"
	pkgAtomicfile = "repro/internal/atomicfile"
	pkgObs        = "repro/internal/obs"
	pkgProxy      = "repro/internal/proxy"
	pkgReplica    = "repro/internal/replica"
	pkgServer     = "repro/internal/server"
	pkgWAL        = "repro/internal/wal"
)

// normPkgPath maps an external test package ("repro/api_test") onto the
// package it tests, so scoping rules treat both the same way.
func normPkgPath(pass *Pass) string {
	return strings.TrimSuffix(pass.Pkg.Path(), "_test")
}

// pkgIn reports whether the pass's package is one of paths.
func pkgIn(pass *Pass, paths ...string) bool {
	p := normPkgPath(pass)
	for _, want := range paths {
		if p == want {
			return true
		}
	}
	return false
}

// isTestFile reports whether file was parsed from a _test.go file.
// Conventions about serving-path code do not bind tests: tests poll,
// hardcode wire bytes, and write scratch files on purpose.
func isTestFile(pass *Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}

// calleeName resolves the statically-called function of call to its
// FullName ("os.Rename", "(*os.File).Sync"), or "" when the callee is
// dynamic, a conversion or a builtin. An explicit instantiation
// (f[T](x)) reads as dynamic: no rule names a generic function.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			obj = sel.Obj() // method
		} else {
			obj = pass.TypesInfo.Uses[fun.Sel] // qualified identifier
		}
	}
	if f, ok := obj.(*types.Func); ok {
		return f.FullName()
	}
	return ""
}

// allowDirective is the suppression escape hatch every analyzer honors.
const allowDirective = "//lint:semprox-allow"

// suppressor indexes the //lint:semprox-allow comments of a pass so
// report can drop findings the code explicitly (and justifiedly) waived.
type suppressor struct {
	pass *Pass
	// allows maps filename → line → justification text ("" = missing).
	allows map[string]map[int]string
}

func newSuppressor(pass *Pass) *suppressor {
	s := &suppressor{pass: pass, allows: make(map[string]map[int]string)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowDirective)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. //lint:semprox-allowx — not the directive
				}
				p := pass.Fset.Position(c.Pos())
				m := s.allows[p.Filename]
				if m == nil {
					m = make(map[int]string)
					s.allows[p.Filename] = m
				}
				m[p.Line] = strings.TrimSpace(rest)
			}
		}
	}
	return s
}

// report emits a diagnostic at pos unless an allow comment with a
// non-empty justification covers the line (same line or the line above).
// An allow comment without a justification does not suppress — the
// finding is re-reported with a reminder, so "zero unexplained
// suppressions" is machine-checked too.
func (s *suppressor) report(pos token.Pos, format string, args ...any) {
	p := s.pass.Fset.Position(pos)
	if m := s.allows[p.Filename]; m != nil {
		for _, line := range []int{p.Line, p.Line - 1} {
			reason, ok := m[line]
			if !ok {
				continue
			}
			if reason != "" {
				return // justified waiver
			}
			s.pass.Reportf(pos, "%s (//lint:semprox-allow needs a justification: //lint:semprox-allow <why this line is exempt>)",
				fmt.Sprintf(format, args...))
			return
		}
	}
	s.pass.Reportf(pos, format, args...)
}

// stringTagsAndImports collects the BasicLits of a file that are import
// paths or struct tags, which path- and name-shaped rules must never
// fire on.
func stringTagsAndImports(file *ast.File) map[*ast.BasicLit]bool {
	skip := make(map[*ast.BasicLit]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			skip[n.Path] = true
		case *ast.Field:
			if n.Tag != nil {
				skip[n.Tag] = true
			}
		}
		return true
	})
	return skip
}
