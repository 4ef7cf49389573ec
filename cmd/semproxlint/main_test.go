package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throw-away module named repro (the analyzers
// scope by that prefix) that imports nothing outside the standard
// library, so `go list -export` loads it offline: package a with an
// in-package test and an external test that imports sibling b, which
// imports a — so go list also emits "repro/b [repro/a.test]", a
// dependency recompiled for someone else's test.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	base := map[string]string{
		"go.mod":        "module repro\n\ngo 1.24\n",
		"a/a.go":        "package a\n\nfunc Path() string { return \"query\" }\n",
		"a/a_test.go":   "package a\n\nvar inPackage = \"/v1/query\"\n",
		"a/ext_test.go": "package a_test\n\nimport \"repro/b\"\n\nvar external = b.Path() + \"/v1/query\"\n",
		"b/b.go":        "package b\n\nimport \"repro/a\"\n\nfunc Path() string { return a.Path() }\n",
	}
	for name, src := range files {
		base[name] = src
	}
	for name, src := range base {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestEachFileAnalyzedOnce pins the package selection: one literal in a
// non-test file is reported exactly once — whether its package is also
// listed as a test variant (a) or recompiled for another package's test
// (b) — and the same literal in _test.go files, in-package and external,
// is not reported.
func TestEachFileAnalyzedOnce(t *testing.T) {
	for _, tc := range []struct{ file, src, want string }{
		{"a/a.go", "package a\n\nfunc Path() string { return \"/v1/query\" }\n",
			"a/a.go:3:29: rawpath: hardcoded versioned path \"/v1/query\""},
		{"b/b.go", "package b\n\nimport \"repro/a\"\n\nfunc Path() string { return a.Path() + \"/v1/query\" }\n",
			"b/b.go:5:40: rawpath: hardcoded versioned path \"/v1/query\""},
	} {
		dir := writeModule(t, map[string]string{tc.file: tc.src})
		var stdout, stderr bytes.Buffer
		if status := run(dir, []string{"./..."}, &stdout, &stderr); status != 1 {
			t.Errorf("%s: exit status %d, want 1; stderr:\n%s", tc.file, status, &stderr)
		}
		got := strings.TrimSuffix(stdout.String(), "\n")
		if strings.Contains(got, "\n") || !strings.HasPrefix(filepath.ToSlash(got), tc.want) {
			t.Errorf("%s: findings:\n%s\nwant exactly one, starting %q", tc.file, got, tc.want)
		}
	}
}

// TestTypeErrorExitsTwo: a package that does not compile is a load
// failure (status 2, the compiler's message on stderr), not a clean run.
func TestTypeErrorExitsTwo(t *testing.T) {
	dir := writeModule(t, map[string]string{"a/a.go": "package a\n\nfunc Path() string { return 1 }\n"})
	var stdout, stderr bytes.Buffer
	if status := run(dir, []string{"./..."}, &stdout, &stderr); status != 2 {
		t.Errorf("exit status %d, want 2", status)
	}
	if msg := stderr.String(); !strings.Contains(msg, "a.go:3:29") || !strings.Contains(msg, "cannot use 1") {
		t.Errorf("stderr does not carry the compiler's message:\n%s", msg)
	}
}
