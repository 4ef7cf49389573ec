package lint

import (
	"go/ast"
)

// AtomicWrite enforces the PR-4 lesson that birthed internal/atomicfile:
// the temp+fsync+rename+dirsync dance was hand-copied three times and
// one copy was wrong. Outside internal/atomicfile (the one blessed
// implementation) and internal/wal (which owns its own fsync schedule
// for segments and sidecars), code must not reach for the raw
// persistence primitives — os.Rename, os.Create, os.CreateTemp, or
// (*os.File).Sync. Durable files go through atomicfile.Write/WriteWith.
var AtomicWrite = &Analyzer{
	Name: "atomicwrite",
	Doc: "report raw os.Rename/os.Create/os.CreateTemp/(*os.File).Sync persistence outside " +
		"internal/atomicfile and internal/wal; durable files go through atomicfile.Write/WriteWith",
	Run: runAtomicWrite,
}

// rawPersistence maps each forbidden callee to the habit it indicates.
var rawPersistence = map[string]string{
	"os.Rename":       "a hand-rolled atomic-replace",
	"os.Create":       "a hand-rolled file write",
	"os.CreateTemp":   "a hand-rolled temp+rename",
	"(*os.File).Sync": "a hand-rolled fsync schedule",
}

func runAtomicWrite(pass *Pass) {
	if pkgIn(pass, pkgAtomicfile, pkgWAL) {
		return // the two owners of raw durability
	}
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
			name := calleeName(pass, call)
			if why, bad := rawPersistence[name]; bad {
				sup.report(call.Pos(),
					"%s outside internal/atomicfile and internal/wal is %s: write durable files through internal/atomicfile (Write/WriteWith)",
					name, why)
			}
			return true
		})
	}
}
