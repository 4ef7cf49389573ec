package flat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
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
	w.String("")
	w.String(" a\nb\r\n\t#")
	w.String(strings.Repeat("name ", 30_000))
	for i := 0; i < 20_000; i++ {
		w.String(strconv.Itoa(i))
	}
	w.String("")
	w.String(strings.Repeat("tail ", 20_000))
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
	same = same && r.String() == ""
	same = same && r.String() == " a\nb\r\n\t#"
	same = same && r.String() == strings.Repeat("name ", 30_000)
	for i := 0; i < 20_000; i++ {
		same = same && r.String() == strconv.Itoa(i)
	}
	scratch := r.AppendBytes([]byte("head "))
	same = same && string(scratch) == "head "
	scratch = r.AppendBytes(append(scratch[:0], "head"...))
	same = same && string(scratch) == "head"+strings.Repeat("tail ", 20_000)
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

// TestOffsetsAgree: after each value, the writer's Offset is the number of
// bytes written so far, its BitOffset eight times that, and the reader's, having read the same values, is
// the same number — however the bytes arrive, across buffer refills and
// byte strings larger than a buffer — and once the stream fails the
// reader's Offset stops where the bytes ran out.
func TestOffsetsAgree(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	offsets := []int64{w.Offset()}
	note := func() {
		if w.BitOffset() != 8*w.Offset() {
			t.Fatalf("the writer is at bit %d, byte %d", w.BitOffset(), w.Offset())
		}
		offsets = append(offsets, w.Offset())
	}
	for i := 0; i < 30_000; i++ {
		w.Uvarint(uint64(i) * 997)
		note()
		w.Uint64(uint64(i))
		note()
	}
	w.Bytes(bytes.Repeat([]byte("x"), 100_000))
	note()
	w.String("tail")
	note()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := offsets[len(offsets)-1] + 4; got != int64(buf.Len()) {
		t.Fatalf("the writer's last Offset is %d, the trailer after it; the stream is %d bytes", got-4, buf.Len())
	}
	for name, in := range map[string]io.Reader{
		"whole":            bytes.NewReader(buf.Bytes()),
		"a byte at a time": iotest.OneByteReader(bytes.NewReader(buf.Bytes())),
	} {
		r, err := NewReader(in, magic)
		if err != nil {
			t.Fatal(err)
		}
		got := []int64{r.BitOffset() / 8}
		for i := 0; i < 30_000; i++ {
			r.Uvarint()
			got = append(got, r.BitOffset()/8)
			r.Uint64()
			got = append(got, r.BitOffset()/8)
		}
		r.Bytes()
		got = append(got, r.BitOffset()/8)
		if r.String() != "tail" {
			t.Fatalf("%s: the last string reads back otherwise", name)
		}
		got = append(got, r.BitOffset()/8)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, offsets) {
			t.Fatalf("%s: the reader's offsets differ from the writer's", name)
		}
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()[:1000]), magic)
	if err != nil {
		t.Fatal(err)
	}
	for r.Err() == nil {
		r.Uint64()
	}
	if at := r.BitOffset(); at != 8*1000 {
		t.Fatalf("a failed stream of 1000 bytes reports a BitOffset of %d", at)
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

// TestUvarintFastPathEqualsSlow: for every value up to the first
// three-byte ones, the inline one- and two-byte writes give the bytes
// encoding/binary gives, and the inline reads return exactly what the
// byte-by-byte read returns and consume as many bytes; and a two-byte
// varint whose second byte is not yet buffered is read whole.
func TestUvarintFastPathEqualsSlow(t *testing.T) {
	const top = 1<<14 + 1
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	want := []byte(magic)
	for v := uint64(0); v <= top; v++ {
		w.Uvarint(v)
		want = binary.AppendUvarint(want, v)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:buf.Len()-4]; !bytes.Equal(got, want) {
		t.Fatal("Writer.Uvarint wrote other bytes than binary.AppendUvarint")
	}
	fast, _ := NewReader(bytes.NewReader(buf.Bytes()), magic)
	slow, _ := NewReader(bytes.NewReader(buf.Bytes()), magic)
	for v := uint64(0); v <= top; v++ {
		if f, s := fast.Uvarint(), slow.uvarintSlow(); f != v || s != v || fast.pos != slow.pos {
			t.Fatalf("value %d: Uvarint read %d to byte %d, uvarintSlow %d to byte %d", v, f, fast.pos, s, slow.pos)
		}
	}
	if err := fast.Close(); err != nil {
		t.Fatal(err)
	}
	if err := slow.Close(); err != nil {
		t.Fatal(err)
	}

	buf.Reset()
	w = NewWriter(&buf, magic)
	w.Uvarint(300) // 0xac 0x02
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cut := len(magic) + 1 // the first delivery ends after the varint's first byte
	r, err := NewReader(io.MultiReader(bytes.NewReader(buf.Bytes()[:cut]), bytes.NewReader(buf.Bytes()[cut:])), magic)
	if err != nil {
		t.Fatal(err)
	}
	if r.end-r.pos != 1 {
		t.Fatalf("%d bytes buffered behind the magic, want the varint's first alone", r.end-r.pos)
	}
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("a varint split across deliveries read as %d", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
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
// sequence of Uvarint, Uint64, Bytes, String, AppendBytes, ExpGolomb (of
// order op/7 mod 8) and Align calls, one per byte of ops, then
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
	w.String("name")
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()[len(magic):]
	f.Add(valid, []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2})
	f.Add(valid, []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 3})
	f.Add(valid, []byte{2, 2, 2})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}, []byte{3})
	f.Add(valid[:len(valid)/2], []byte{0, 0, 1, 1, 2})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, []byte{0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}, []byte{2})
	f.Add([]byte{}, []byte{1, 2})
	f.Add(valid, []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}, []byte{4})
	f.Add([]byte{0x30}, []byte{3, 4}) // a failed String, then AppendBytes
	// Codes between byte-level reads, padding set and clear, and a code
	// past the stream.
	f.Add([]byte{0x80, 0x05, 0xa0, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0x40}, []byte{5, 0, 5, 6, 5, 0, 12, 5})
	f.Add(valid, []byte{5, 19, 6, 0, 1, 5})
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
			switch op % 7 {
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
			case 3:
				s := r.String()
				if len(s) > len(data) {
					t.Fatalf("String returned %d bytes out of a %d-byte stream", len(s), len(data))
				}
				zero = s == ""
			case 4:
				b := r.AppendBytes([]byte("pre"))
				if b != nil && (len(b) > 3+len(data) || string(b[:3]) != "pre") {
					t.Fatalf("AppendBytes returned %q out of a %d-byte stream", b, len(data))
				}
				zero = b == nil
			case 5:
				zero = r.ExpGolomb(uint(op/7)%8) == 0
			case 6:
				r.Align()
				zero = true
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
