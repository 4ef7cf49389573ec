// Package linttest is the golden-file harness the analyzer suite's
// tests run on: a small, hermetic analogue of x/tools' analysistest on
// the same lint.Run the real driver (cmd/semproxlint) loads packages
// through.
//
// Layout is analysistest's GOPATH style: a testdata directory holds
// src/<import/path>/*.go trees. Every import — including "stdlib"
// packages like os, time, net/http — resolves from the same tree, so
// testdata ships tiny fakes of the handful of standard declarations the
// analyzers match on (same import paths, same names) and a run never
// type-checks the real standard library: goldens are fast, offline, and
// independent of the host toolchain's sources.
//
// Expectations are analysistest's syntax: a comment
//
//	// want `regexp` "another regexp"
//
// on the line of the expected diagnostic. Every diagnostic must match an
// expectation on its exact line and every expectation must be consumed,
// so goldens pin both the positives and the negatives.
package linttest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run loads each named package (and, transitively, everything it
// imports) from dir's GOPATH-style src/ tree, applies a to each named
// package, and fails t on any mismatch between reported diagnostics and
// the // want expectations in the package's files.
func Run(t *testing.T, dir string, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	l := &loader{
		t:    t,
		a:    a,
		fset: token.NewFileSet(),
		src:  filepath.Join(dir, "src"),
		pkgs: make(map[string]*lint.Pass),
	}
	for _, path := range pkgs {
		checkExpectations(t, a.Name, l.load(path))
	}
}

// loader resolves and memoizes testdata packages; it is the
// types.Importer of its own type-checking runs, so fakes in the tree
// shadow the real standard library by construction. Every package it
// loads goes through lint.Run with the analyzer under test — imported
// ones too, whose findings nobody reads.
type loader struct {
	t       *testing.T
	a       *lint.Analyzer
	fset    *token.FileSet
	src     string
	pkgs    map[string]*lint.Pass
	loading []string // active import chain, for cycle reporting
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.src, filepath.FromSlash(path))); err != nil {
		// Not in the tree: fall back to the compiler's export data so
		// testdata may also lean on real stdlib when a fake would be
		// bigger than the real thing.
		return importer.Default().Import(path)
	}
	return l.load(path).Pkg, nil
}

func (l *loader) load(path string) *lint.Pass {
	l.t.Helper()
	if pass, ok := l.pkgs[path]; ok {
		if pass == nil {
			l.t.Fatalf("import cycle in testdata: %s", strings.Join(append(l.loading, path), " -> "))
		}
		return pass
	}
	l.pkgs[path] = nil // cycle marker
	l.loading = append(l.loading, path)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	names, _ := filepath.Glob(filepath.Join(l.src, filepath.FromSlash(path), "*.go")) // sorted
	if len(names) == 0 {
		l.t.Fatalf("testdata package %s has no .go files", path)
	}
	pass, err := lint.Run(l.fset, path, names, l, l.a)
	if err != nil {
		l.t.Fatalf("testdata package %s must compile:\n%v", path, err)
	}
	l.pkgs[path] = pass
	return pass
}

// expectation is one parsed // want regexp, consumed by at most one
// diagnostic on its line.
type expectation struct {
	re       *regexp.Regexp
	raw      string
	consumed bool
}

type lineKey struct {
	file string
	line int
}

// checkExpectations matches diagnostics against // want comments
// line-for-line.
func checkExpectations(t *testing.T, name string, pass *lint.Pass) {
	t.Helper()
	fset := pass.Fset
	wants := make(map[lineKey][]*expectation)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				exps, err := parseWants(strings.TrimPrefix(text, "want "))
				if err != nil {
					t.Fatalf("%s:%d: malformed want comment: %v", pos.Filename, pos.Line, err)
				}
				k := lineKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], exps...)
			}
		}
	}

	for _, d := range pass.Diagnostics {
		pos := fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		matched := false
		for _, exp := range wants[k] {
			if !exp.consumed && exp.re.MatchString(d.Message) {
				exp.consumed = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", pos.Filename, pos.Line, name, d.Message)
		}
	}
	for k, exps := range wants {
		for _, exp := range exps {
			if !exp.consumed {
				t.Errorf("%s:%d: no %s diagnostic matched want %q", k.file, k.line, name, exp.raw)
			}
		}
	}
}

// parseWants splits a want payload into its quoted regexps; both
// double-quoted and backquoted forms are accepted, as in analysistest.
func parseWants(s string) ([]*expectation, error) {
	var out []*expectation
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected a quoted regexp, found %q", s)
		}
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return nil, fmt.Errorf("unterminated quoted regexp in %q", s)
		}
		raw, err := strconv.Unquote(q)
		if err != nil {
			return nil, fmt.Errorf("unquoting %q: %v", q, err)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, fmt.Errorf("compiling want regexp %q: %v", raw, err)
		}
		out = append(out, &expectation{re: re, raw: raw})
		s = s[len(q):]
	}
}
