// Command semproxlint runs the repo's project-specific analyzers
// (internal/lint) — the machine checks behind the conventions DESIGN.md
// used to state as prose: rawpath, atomicwrite, metricname, envelope,
// ctxfirst, sleepwait.
//
//	semproxlint ./...        # what make lint runs
//
// It asks `go list -e -test -deps -export -json` for the files, the
// import map and the compiled export data of every package the patterns
// name, type-checks each of the main module's packages with go/types
// against that export data, and prints the findings sorted as
// file:line:col: analyzer: message. Exit status 1 means findings, 2
// means a package did not load or type-check.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// listed is what the driver reads of one `go list -json` package.
type listed struct {
	ImportPath string // "p", or "p [q.test]" for p as compiled for q's test
	Dir        string
	GoFiles    []string          // of "p [p.test]": p's files and its in-package tests
	ImportMap  map[string]string // import path in source → ImportPath, where they differ
	Export     string            // file holding the compiled export data
	ForTest    string
	DepOnly    bool
	Module     *struct{ Main bool }
	Error      *struct{ Err string } // why it did not load or compile
	DepsErrors []struct{}            // the same of its dependencies, reported there
}

// finding is one rendered diagnostic, kept with its position to sort by.
type finding struct {
	pos  token.Position
	text string
}

// run lints the packages patterns name in the module at dir and returns
// the process exit status.
func run(dir string, patterns []string, stdout, stderr io.Writer) int {
	cmd := exec.Command("go", append([]string{"list", "-e", "-test", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(stderr, "semproxlint: go list: %v\n", err)
		return 2
	}
	var pkgs []*listed
	exports := make(map[string]string) // ImportPath → export data file
	hasTests := make(map[string]bool)  // p → "p [p.test]" is listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listed)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(stderr, "semproxlint: go list output: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, p)
		exports[p.ImportPath] = p.Export
		if p.ImportPath == p.ForTest+" ["+p.ForTest+".test]" {
			hasTests[p.ForTest] = true
		}
	}

	status := 0
	base, _ := filepath.Abs(dir)
	var found []finding
	for _, p := range pkgs {
		if p.Error != nil {
			fmt.Fprintf(stderr, "semproxlint: %s\n", strings.TrimSpace(p.Error.Err))
			status = 2
			continue
		}
		path, _, _ := strings.Cut(p.ImportPath, " [")
		// Each source file exactly once: a package is analyzed as its
		// test variant "p [p.test]" when it has one (that holds the
		// in-package _test.go files too) and as the external "p_test
		// [p.test]"; never as the generated "p.test" main, and never as
		// a dependency (go list marks "q [p.test]", q recompiled for p's
		// test, DepOnly like any other).
		if p.Module == nil || !p.Module.Main || p.DepOnly || len(p.DepsErrors) > 0 ||
			strings.HasSuffix(path, ".test") || p.ForTest == "" && hasTests[path] {
			continue
		}
		pass, err := check(p, path, exports)
		if err != nil {
			fmt.Fprintf(stderr, "semproxlint: %s:\n%v\n", p.ImportPath, err)
			status = 2
			continue
		}
		for _, d := range pass.Diagnostics {
			pos := pass.Fset.Position(d.Pos)
			if rel, err := filepath.Rel(base, pos.Filename); err == nil {
				pos.Filename = rel
			}
			found = append(found, finding{pos, fmt.Sprintf("%s: %s: %s", pos, d.Analyzer, d.Message)})
		}
	}
	slices.SortFunc(found, func(a, b finding) int {
		return cmp.Or(cmp.Compare(a.pos.Filename, b.pos.Filename),
			cmp.Compare(a.pos.Line, b.pos.Line), cmp.Compare(a.text, b.text))
	})
	for _, f := range found {
		fmt.Fprintln(stdout, f.text)
	}
	if status == 0 && len(found) > 0 {
		status = 1
	}
	return status
}

// check type-checks one listed package against its dependencies' export
// data and runs the suite. The importer is per package: it caches by
// source import path, and the same path names different compiled
// variants under different tests.
func check(p *listed, path string, exports map[string]string) (*lint.Pass, error) {
	files := make([]string, len(p.GoFiles))
	for i, f := range p.GoFiles {
		files[i] = filepath.Join(p.Dir, f)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(ipath string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[ipath]; ok {
			ipath = mapped
		}
		if exports[ipath] == "" {
			return nil, fmt.Errorf("no export data for %q", ipath)
		}
		return os.Open(exports[ipath])
	})
	return lint.Run(fset, path, files, imp, lint.Analyzers()...)
}
