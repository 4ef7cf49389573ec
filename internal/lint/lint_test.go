package lint_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRunRefusesBrokenPackage: a file that does not parse, or a package
// that does not type-check, is an error that names the position — never
// a Pass whose findings a caller could mistake for a clean bill.
func TestRunRefusesBrokenPackage(t *testing.T) {
	for src, want := range map[string]string{
		"package p\n\nfunc {\n":                     "p.go:3:6",
		"package p\n\nvar s string = 1 + \"/v1\"\n": "p.go:3:16",
	} {
		name := filepath.Join(t.TempDir(), "p.go")
		if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		pass, err := lint.Run(token.NewFileSet(), "repro/p", []string{name}, nil, lint.Analyzers()...)
		if pass != nil || err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run(%q) = %v, %v; want no pass and an error at %s", src, pass, err, want)
		}
	}
}
