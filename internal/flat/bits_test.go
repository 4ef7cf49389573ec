package flat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/iotest"
)

// codeLen is the length of v's exp-Golomb code of order k.
func codeLen(v uint64, k uint) int64 {
	return int64(2*bits.Len64(v+1<<k) - int(k) - 1)
}

// maxCode is the largest value a code of order k holds.
func maxCode(k uint) uint64 { return math.MaxUint64 - 1<<k }

// TestExpGolombKnownBits pins the codes' bits: l-k-1 zeros, then v+2^k.
func TestExpGolombKnownBits(t *testing.T) {
	for _, c := range []struct {
		v    uint64
		k    uint
		want string
	}{
		{0, 0, "1"},
		{1, 0, "010"},
		{2, 0, "011"},
		{3, 0, "00100"},
		{0, 2, "100"},
		{3, 2, "111"},
		{4, 2, "01000"},
		{13, 2, "0010001"},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf, "")
		w.ExpGolomb(c.v, c.k)
		if got := w.BitOffset(); got != int64(len(c.want)) || got != codeLen(c.v, c.k) {
			t.Errorf("%d at order %d: %d bits, want %d", c.v, c.k, got, len(c.want))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var got []byte
		for _, b := range buf.Bytes()[:(len(c.want)+7)/8] {
			for i := 7; i >= 0; i-- {
				got = append(got, '0'+b>>i&1)
			}
		}
		if string(got[:len(c.want)]) != c.want || bytes.ContainsRune(got[len(c.want):], '1') {
			t.Errorf("%d at order %d: bits %s, want %s and zero padding", c.v, c.k, got, c.want)
		}
	}
}

// codeStream writes a run of codes of every order up to 9 over values
// from 0 to the largest each order holds, with byte-level values and
// Align between them, enough that the buffers wrap; it returns the stream
// and the writer's BitOffset after each value.
func codeStream(t testing.TB) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	offs := []int64{w.BitOffset()}
	for i := 0; i < 120_000; i++ {
		k := uint(i % 10)
		w.ExpGolomb(codeValue(i), k)
		offs = append(offs, w.BitOffset())
		switch i % 997 {
		case 0:
			w.Uvarint(uint64(i))
		case 1:
			w.Align()
		case 2:
			w.String("name")
		}
		offs = append(offs, w.BitOffset())
	}
	w.ExpGolomb(maxCode(0), 0)
	w.ExpGolomb(maxCode(5), 5)
	offs = append(offs, w.BitOffset())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), offs
}

// codeValue is the i-th value codeStream writes: small ones mostly, and
// every so often one near a power of two up to 2^62.
func codeValue(i int) uint64 {
	if i%7 == 0 {
		return 1<<(i%63) - uint64(i%3)
	}
	return uint64(i % 300)
}

func TestExpGolombRoundTrip(t *testing.T) {
	data, offs := codeStream(t)
	for name, in := range map[string]io.Reader{
		"whole":            bytes.NewReader(data),
		"a byte at a time": iotest.OneByteReader(bytes.NewReader(data)),
	} {
		r, err := NewReader(in, magic)
		if err != nil {
			t.Fatal(err)
		}
		got := []int64{r.BitOffset()}
		for i := 0; i < 120_000; i++ {
			if v := r.ExpGolomb(uint(i % 10)); v != codeValue(i) {
				t.Fatalf("%s: code %d reads %d, want %d (%v)", name, i, v, codeValue(i), r.Err())
			}
			got = append(got, r.BitOffset())
			switch i % 997 {
			case 0:
				if r.Uvarint() != uint64(i) {
					t.Fatalf("%s: the varint after code %d reads otherwise", name, i)
				}
			case 1:
				r.Align()
			case 2:
				if r.String() != "name" {
					t.Fatalf("%s: the string after code %d reads otherwise", name, i)
				}
			}
			got = append(got, r.BitOffset())
		}
		if r.ExpGolomb(0) != maxCode(0) || r.ExpGolomb(5) != maxCode(5) {
			t.Fatalf("%s: the largest codes read back otherwise", name)
		}
		got = append(got, r.BitOffset())
		if err := r.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, offs) {
			t.Fatalf("%s: the reader's bit offsets differ from the writer's", name)
		}
	}
}

// TestExpGolombRefusals: each way a code can be malformed fails the
// stream with its own error, and a writer asked for a value no code holds
// fails its stream.
func TestExpGolombRefusals(t *testing.T) {
	framed := func(body ...byte) *Reader {
		r, err := NewReader(bytes.NewReader(append([]byte(magic), body...)), magic)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	zeros := func(n int, tail ...byte) []byte { return append(make([]byte, n), tail...) }
	for _, c := range []struct {
		name string
		body []byte
		k    uint
		want error
	}{
		// 64 zero bits, then the rest of a code: in the window and past it.
		{"a prefix of 64 zeros", zeros(8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), 0, errPrefix},
		{"a prefix of 64 zeros at the stream's end", zeros(8, 0x80), 0, errPrefix},
		{"a prefix of 80 zeros", zeros(10, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), 3, errPrefix},
		// 63 zeros and order 1: a value of 65 bits.
		{"a code past 64 bits", zeros(7, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), 1, errCode},
		{"a code cut off in its prefix", zeros(2), 0, io.ErrUnexpectedEOF},
		{"a code cut off in its value", []byte{0x00, 0x01}, 0, io.ErrUnexpectedEOF},
		{"an empty stream", nil, 4, io.ErrUnexpectedEOF},
	} {
		r := framed(c.body...)
		if v := r.ExpGolomb(c.k); v != 0 || !errors.Is(r.Err(), c.want) {
			t.Errorf("%s: read %d, error %v; want %v", c.name, v, r.Err(), c.want)
		}
	}
	// The largest code of order 0 is 63 zeros then 64 bits: it reads.
	if r := framed(zeros(7, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe)...); r.ExpGolomb(0) != maxCode(0) || r.Err() != nil {
		t.Errorf("the largest code of order 0 is refused: %v", r.Err())
	}

	// "1" (0 at order 0), then padding, then a byte-level value or the
	// trailer: every way past the padding refuses a bit set in it.
	for name, read := range map[string]func(r *Reader){
		"Align":   func(r *Reader) { r.Align() },
		"Uvarint": func(r *Reader) { r.Uvarint() },
		"Uint64":  func(r *Reader) { r.Uint64() },
		"String":  func(r *Reader) { _ = r.String() },
		"Raw":     func(r *Reader) { r.AppendRaw(nil, 1) },
		"Close":   func(r *Reader) { _ = r.Close() },
	} {
		for _, padding := range []byte{0x01, 0x40} {
			r := framed(0x80|padding, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
			if r.ExpGolomb(0) != 0 || r.Err() != nil {
				t.Fatalf("%s: the code before the padding is refused", name)
			}
			if read(r); !errors.Is(r.Err(), errPadding) {
				t.Errorf("%s past padding %#x: %v, want %v", name, padding, r.Err(), errPadding)
			}
		}
	}

	for _, c := range []struct {
		v uint64
		k uint
	}{{math.MaxUint64, 0}, {maxCode(3) + 1, 3}, {0, 64}} {
		w := NewWriter(io.Discard, magic)
		w.ExpGolomb(c.v, c.k)
		if err := w.Close(); !errors.Is(err, errCode) {
			t.Errorf("writing %d at order %d: %v, want %v", c.v, c.k, err, errCode)
		}
	}
}

// FuzzExpGolomb round-trips a sequence of (value, order) codes, each
// followed by an Align, a varint or a raw byte where its op says: every
// value reads back, at the bit offset the writer had, each code as long
// as its formula, and the stream closes clean. A value no code of its
// order holds fails the writer instead.
func FuzzExpGolomb(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(slices.Concat(
		[]byte{4, 0, 0, 0, 0, 0, 0, 0, 1},
		[]byte{0x45, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe},
		[]byte{0x87, 0, 0, 0, 0, 0, 0, 0x10, 0},
		[]byte{0xc2, 0x7f, 0, 0, 0, 0, 0, 0, 0},
	))
	f.Add(bytes.Repeat([]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0x80}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		type op struct {
			v    uint64
			k    uint
			then byte
		}
		var ops []op
		for ; len(data) >= 9; data = data[9:] {
			ops = append(ops, op{binary.BigEndian.Uint64(data[1:]), uint(data[0] & 63), data[0] >> 6})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, magic)
		var offs []int64
		for _, o := range ops {
			if o.v > maxCode(o.k) {
				w.ExpGolomb(o.v, o.k)
				if err := w.Close(); !errors.Is(err, errCode) {
					t.Fatalf("%d at order %d was written: %v", o.v, o.k, err)
				}
				return
			}
			before := w.BitOffset()
			w.ExpGolomb(o.v, o.k)
			if got := w.BitOffset() - before; got != codeLen(o.v, o.k) {
				t.Fatalf("%d at order %d took %d bits, want %d", o.v, o.k, got, codeLen(o.v, o.k))
			}
			switch o.then {
			case 1:
				w.Align()
			case 2:
				w.Uvarint(o.v)
			case 3:
				w.Raw(string([]byte{byte('a' + o.k)}))
			}
			offs = append(offs, w.BitOffset())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for name, in := range map[string]io.Reader{
			"whole":            bytes.NewReader(buf.Bytes()),
			"a byte at a time": iotest.OneByteReader(bytes.NewReader(buf.Bytes())),
		} {
			r, err := NewReader(in, magic)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range ops {
				if v := r.ExpGolomb(o.k); v != o.v {
					t.Fatalf("%s: code %d reads %d, want %d at order %d (%v)", name, i, v, o.v, o.k, r.Err())
				}
				switch o.then {
				case 1:
					r.Align()
				case 2:
					if r.Uvarint() != o.v {
						t.Fatalf("%s: the varint after code %d reads otherwise", name, i)
					}
				case 3:
					if string(r.AppendRaw(nil, 1)) != string([]byte{byte('a' + o.k)}) {
						t.Fatalf("%s: the byte after code %d reads otherwise", name, i)
					}
				}
				if r.BitOffset() != offs[i] {
					t.Fatalf("%s: after code %d the reader is at bit %d, the writer was at %d", name, i, r.BitOffset(), offs[i])
				}
			}
			if err := r.Close(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}
