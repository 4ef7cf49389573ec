package flat

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"
)

const magic = "TEST\x01"

var words = []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 32, math.MaxUint64}

// stream writes every primitive at every interesting width, plus enough
// filler that both buffers wrap several times.
func stream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	for _, v := range words {
		w.Uvarint(v)
		w.Uint64(v)
	}
	w.Bytes(nil)
	w.Bytes(bytes.Repeat([]byte("graph "), 50_000))
	for i := 0; i < 40_000; i++ {
		w.Uvarint(uint64(i))
		w.Uint64(uint64(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// consume reads back what stream wrote and returns the reader's verdict;
// a stream that passes it must have delivered exactly what was written.
func consume(t testing.TB, in io.Reader) error {
	t.Helper()
	r, err := NewReader(in, magic)
	if err != nil {
		return err
	}
	same := true
	for _, v := range words {
		same = same && r.Uvarint() == v && r.Uint64() == v
	}
	same = same && len(r.Bytes()) == 0
	same = same && bytes.Equal(r.Bytes(), bytes.Repeat([]byte("graph "), 50_000))
	for i := 0; i < 40_000; i++ {
		same = same && r.Uvarint() == uint64(i) && r.Uint64() == uint64(i)
	}
	if err := r.Close(); err != nil {
		return err
	}
	if !same {
		t.Fatal("a stream that passed its checksum read back differently")
	}
	return nil
}

func TestRoundTrip(t *testing.T) {
	data := stream(t)
	if err := consume(t, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	// The same bytes one at a time, and with data and EOF in one Read.
	if err := consume(t, iotest.OneByteReader(bytes.NewReader(data))); err != nil {
		t.Fatalf("one byte at a time: %v", err)
	}
	if err := consume(t, iotest.DataErrReader(bytes.NewReader(data))); err != nil {
		t.Fatalf("data with EOF: %v", err)
	}
}

func TestEveryCorruptionIsAnError(t *testing.T) {
	data := stream(t)
	for _, cut := range []int{0, 3, len(magic), len(magic) + 1, 100, 70_000, len(data) - 5, len(data) - 4, len(data) - 1} {
		if err := consume(t, bytes.NewReader(data[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("prefix of %d/%d bytes: %v, want unexpected EOF", cut, len(data), err)
		}
	}
	for pos := 0; pos < len(data); pos += 2999 {
		bad := bytes.Clone(data)
		bad[pos] ^= 0x04
		if err := consume(t, bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at %d/%d went unnoticed", pos, len(data))
		}
	}
	// A flip inside a fixed-width word leaves the structure intact: only
	// the trailer can tell.
	bad := bytes.Clone(data)
	bad[len(bad)-4-3] ^= 0x04
	if err := consume(t, bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped word: %v, want ErrChecksum", err)
	}
	if err := consume(t, bytes.NewReader(append(bytes.Clone(data), 0))); err == nil {
		t.Error("bytes after the trailer went unnoticed")
	}
	if _, err := NewReader(bytes.NewReader(data), "TEST\x02"); err == nil {
		t.Error("wrong magic accepted")
	}
	over := append([]byte(magic), bytes.Repeat([]byte{0xff}, 10)...)
	r, err := NewReader(bytes.NewReader(over), magic)
	if err != nil {
		t.Fatal(err)
	}
	if r.Uvarint(); r.Err() == nil {
		t.Error("an 11-byte varint was accepted")
	}
}

func TestWriterKeepsTheFirstError(t *testing.T) {
	boom := errors.New("disk full")
	w := NewWriter(errWriter{boom}, magic)
	w.Bytes(make([]byte, 10))
	for i := 0; i < 100_000; i++ {
		w.Uint64(uint64(i))
	}
	if err := w.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the write error", err)
	}
}

type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

// TestClaimsCostWhatTheStreamDelivers: neither a byte string nor an arena
// is sized by a length the stream merely states.
func TestClaimsCostWhatTheStreamDelivers(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	w.Uvarint(1 << 40) // a byte string's length prefix with 4 bytes behind it
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewReader(bytes.NewReader(buf.Bytes()), magic)
	if err != nil {
		t.Fatal(err)
	}
	if b := r.Bytes(); b != nil || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("Bytes = %d bytes, err %v", len(b), r.Err())
	}
	if _, err := Grow(r, []int64(nil), 1<<40); err == nil {
		t.Fatal("Grow handed out memory after the stream failed")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a %d-byte stream cost %d bytes of allocation", buf.Len(), got)
	}

	r, _ = NewReader(bytes.NewReader(stream(t)), magic)
	var s []int64
	for n, total := 0, 100_000; n < total; n++ {
		if n == cap(s) {
			was := cap(s)
			if s, err = Grow(r, s, total); err != nil {
				t.Fatal(err)
			}
			if cap(s) > max(growFactor*was, growMin) || cap(s) > total || len(s) != n {
				t.Fatalf("Grow: len %d cap %d after cap %d toward %d", len(s), cap(s), was, total)
			}
		}
		s = append(s, int64(n))
	}
	if len(s) != cap(s) || s[99_999] != 99_999 || s[0] != 0 {
		t.Fatalf("arena ends with len %d cap %d", len(s), cap(s))
	}
}

// FuzzFlatReader reads arbitrary bytes (behind the magic) with an arbitrary
// sequence of Uvarint, Uint64 and Bytes calls, one per byte of ops, then
// Close: no read panics, no byte string is longer than the stream, every
// read after the first error returns zero, and the whole run allocates no
// more than the Reader's own buffer plus a constant factor of the bytes it
// was given — whatever lengths the bytes claim.
func FuzzFlatReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	for _, v := range words {
		w.Uvarint(v)
		w.Uint64(v)
	}
	w.Bytes([]byte("graph"))
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()[len(magic):]
	f.Add(valid, []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2})
	f.Add(valid, []byte{2, 2, 2})
	f.Add(valid[:len(valid)/2], []byte{0, 0, 1, 1, 2})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, []byte{0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}, []byte{2})
	f.Add([]byte{}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewReader(bytes.NewReader(append([]byte(magic), data...)), magic)
		if err != nil {
			t.Fatalf("the magic was refused: %v", err)
		}
		for _, op := range ops {
			failed := r.Err() != nil
			var zero bool
			switch op % 3 {
			case 0:
				zero = r.Uvarint() == 0
			case 1:
				zero = r.Uint64() == 0
			case 2:
				b := r.Bytes()
				if len(b) > len(data) {
					t.Fatalf("Bytes returned %d bytes out of a %d-byte stream", len(b), len(data))
				}
				zero = b == nil
			}
			if failed && !zero {
				t.Fatalf("a read after the error %v returned data", r.Err())
			}
		}
		if failed := r.Err(); failed != nil && r.Close() == nil {
			t.Fatalf("Close hid the stream's error %v", failed)
		} else if failed == nil {
			_ = r.Close() // a checksum over bytes nobody wrote: may go either way
		}
		runtime.ReadMemStats(&after)
		// The Reader's buffer, as much again for whatever else the process
		// allocates meanwhile (the fuzz worker's bookkeeping shows up here),
		// and a constant factor of the stream.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*bufSize+4*len(data)); got > limit {
			t.Fatalf("%d bytes read with %d calls allocated %d bytes (limit %d)", len(data), len(ops), got, limit)
		}
	})
}
