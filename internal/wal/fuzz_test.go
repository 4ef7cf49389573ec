package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzWALRead feeds arbitrary bytes as the only segment of a log to the
// reader. Both scan modes and Open may refuse them; they may not panic,
// allocate by a length the bytes merely claim, or hand out a record that
// is not a checksum-verified frame lying directly after the one before
// it — which the target checks by walking the frames itself.
func FuzzWALRead(f *testing.F) {
	const segName = "wal-0000000000000001.seg"
	seedDir := f.TempDir()
	w, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.Append(delta(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seedDir, segName))
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	// A header and one frame that claims the largest record there is.
	f.Add(binary.BigEndian.AppendUint64(valid[:headerSize:headerSize], MaxRecordBytes<<32))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, strict := range []bool{true, false} {
			at := int64(headerSize) // this target's own cursor over data
			end, last, err := scanSegment(path, 1, strict, func(lsn, term uint64, body []byte) bool {
				if at+frameSize > int64(len(data)) {
					t.Fatalf("record %d returned past the end of a %d-byte segment", lsn, len(data))
				}
				length := int64(binary.BigEndian.Uint32(data[at:]))
				if at+frameSize+length > int64(len(data)) {
					t.Fatalf("record %d: frame at %d claims %d bytes of a %d-byte segment", lsn, at, length, len(data))
				}
				payload := data[at+frameSize : at+frameSize+length]
				if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(data[at+4:]) {
					t.Fatalf("record %d returned from a frame whose checksum does not verify", lsn)
				}
				head := binary.AppendUvarint(binary.AppendUvarint(nil, lsn), term)
				if !bytes.Equal(payload, append(head, body...)) {
					t.Fatalf("record %d (term %d) is not the payload of the frame at %d", lsn, term, at)
				}
				at += frameSize + length
				return true
			})
			if err == nil && (end != at || end > int64(len(data)) || (last == 0) != (at == int64(headerSize))) {
				t.Fatalf("strict=%v: scan ends at %d after LSN %d, the frames it returned end at %d", strict, end, last, at)
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+8*len(data)); got > limit {
			t.Fatalf("scanning a %d-byte segment allocated %d bytes", len(data), got)
		}

		// The same bytes through the public surface: a log that opens
		// serves every record it says is durable.
		w, err := Open(dir, Options{})
		if err != nil {
			return
		}
		defer w.Close()
		n := uint64(0)
		err = w.replayRaw(0, w.DurableLSN(), func(lsn, term uint64, body []byte) error {
			n++
			return nil
		})
		if err != nil || n != w.DurableLSN() {
			t.Fatalf("opened at durable LSN %d but replay served %d records: %v", w.DurableLSN(), n, err)
		}
	})
}
