package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"repro/api"
)

// RawPath enforces the api package's monopoly on wire paths: outside
// repro/api, no string literal may spell a versioned "/v1/..." path.
// Handlers, clients, proxies, and tools must name endpoints through the
// api path constants (api.PathQuery, …) so a path rename or a /v2 cut is
// one diff in one package — the invariant PR 5 introduced and reviewers
// have policed by eye since.
var RawPath = &Analyzer{
	Name: "rawpath",
	Doc: "report hardcoded /v1 path literals outside the api package; " +
		"use the api path constants instead",
	Run: runRawPath,
}

func runRawPath(pass *Pass) {
	if pkgIn(pass, pkgAPI) {
		return // the one package allowed to spell paths out
	}
	sup := newSuppressor(pass)
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		skip := stringTagsAndImports(file)
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || skip[lit] {
				return true
			}
			val, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if val == api.Prefix || strings.Contains(val, api.Prefix+"/") {
				sup.report(lit.Pos(),
					"hardcoded versioned path %q: use the repro/api path constants (api.PathQuery, …)", val)
			}
			return true
		})
	}
}
