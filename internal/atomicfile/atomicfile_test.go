package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// dirHolds fails unless dir contains exactly the named entries — in
// particular no ".atomic-*" staging file left behind.
func dirHolds(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
}

func TestWriteReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	for _, content := range []string{"first version, the longer one", "second"} {
		if err := Write(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("read back %q (%v), want %q", got, err, content)
		}
		dirHolds(t, dir, "target")
	}
}

// TestFailedWriteLeavesTargetUntouched is the atomicity contract every
// snapshot, term sidecar and skip file relies on: whichever step fails,
// the previous file is byte-identical afterwards and nothing is left
// staged beside it.
func TestFailedWriteLeavesTargetUntouched(t *testing.T) {
	const old = "the committed bytes"
	boom := errors.New("boom")
	halfThenFail := func(w io.Writer) error {
		if _, err := w.Write([]byte("half of the new")); err != nil {
			return err
		}
		return boom
	}

	t.Run("callback error", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "target")
		if err := Write(path, []byte(old)); err != nil {
			t.Fatal(err)
		}
		if err := WriteWith(path, halfThenFail); !errors.Is(err, boom) {
			t.Fatalf("WriteWith = %v, want the callback's error", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != old {
			t.Fatalf("target now %q (%v), want %q", got, err, old)
		}
		dirHolds(t, dir, "target")
	})

	t.Run("callback error, no previous file", func(t *testing.T) {
		dir := t.TempDir()
		if err := WriteWith(filepath.Join(dir, "target"), halfThenFail); !errors.Is(err, boom) {
			t.Fatalf("WriteWith = %v, want the callback's error", err)
		}
		dirHolds(t, dir)
	})

	t.Run("read-only directory", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "target")
		if err := Write(path, []byte(old)); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		err := Write(path, []byte("new"))
		os.Chmod(dir, 0o755) //nolint:errcheck // restore for cleanup
		if err == nil {
			t.Skip("running with privileges that ignore directory permissions")
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != old {
			t.Fatalf("target now %q (%v), want %q", got, err, old)
		}
		dirHolds(t, dir, "target")
	})

	t.Run("missing directory", func(t *testing.T) {
		dir := t.TempDir()
		if err := Write(filepath.Join(dir, "absent", "target"), []byte("new")); err == nil {
			t.Fatal("Write into a directory that does not exist succeeded")
		}
		dirHolds(t, dir)
	})

	t.Run("rename refused", func(t *testing.T) {
		// The target is a non-empty directory: staging succeeds, the
		// rename cannot, and the staged file must still be cleaned up.
		dir := t.TempDir()
		path := filepath.Join(dir, "target")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, "kept"), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, []byte("new")); err == nil {
			t.Fatal("Write over a non-empty directory succeeded")
		}
		if got, err := os.ReadFile(filepath.Join(path, "kept")); err != nil || string(got) != old {
			t.Fatalf("directory content now %q (%v), want %q", got, err, old)
		}
		dirHolds(t, dir, "target")
	})
}
