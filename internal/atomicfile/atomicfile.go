// Package atomicfile replaces a file atomically and durably: content is
// staged to a temp file in the target's directory, fsynced, renamed over
// the target, and the directory entry is fsynced too. A crash at any
// point leaves either the old file or the new one, never a truncated
// hybrid. Staging in the target's directory (not os.TempDir) keeps the
// rename on one filesystem, which is what makes it atomic.
//
// One implementation serves every writer that needs the pattern — engine
// snapshots (cmd/semproxd), a follower's persisted bootstrap
// (internal/replica), the WAL's term sidecar (internal/wal) — so a
// future durability fix lands in one place.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// WriteWith atomically replaces path with the bytes write streams out.
// If write (or any later step) fails, the target is untouched and the
// temp file is removed; a crash can at worst leave a stale temp file
// behind, never a partial target.
func WriteWith(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".atomic-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Write is WriteWith for content already in memory.
func Write(path string, data []byte) error {
	return WriteWith(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
