package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func testdata(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestRawPath pins the three behaviors of the path rule: versioned
// literals are reported outside repro/api (including inside full URLs),
// constant references and unrelated strings are not, and the api
// package plus _test.go files are exempt. The rptool package also
// carries the suppression-hatch goldens: a justified
// //lint:semprox-allow (above or inline) silences the finding, a bare
// one re-reports it with the justification reminder.
func TestRawPath(t *testing.T) {
	linttest.Run(t, testdata(t), lint.RawPath, "repro/cmd/rptool", "repro/api")
}
