// Package flat is the byte layer of the repo's persisted arenas: engine
// snapshots (package semprox) and index files (internal/index) are both a
// magic string, a body of unsigned varints, fixed 8-byte words and
// length-prefixed byte strings, and a CRC-32C trailer over everything
// before it. Writer and Reader each own a 64 KiB buffer, so a caller may
// hand them a bare *os.File or a network stream; both keep the first error
// and report it from Close (Reader also from Err), so hot loops carry no
// error plumbing.
//
// A Reader's input is untrusted. It never allocates by a number it read:
// Bytes grows with the bytes that actually arrive, and arenas sized by a
// claimed element count are allocated through Grow, which lets the claim
// run at most a constant factor ahead of what the stream has delivered.
package flat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const bufSize = 64 << 10

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	// ErrChecksum reports a stream whose bytes differ from the ones written.
	ErrChecksum = errors.New("flat: checksum mismatch")
	errVarint   = errors.New("flat: varint overflows 64 bits")
)

// Writer streams one checksummed body to w.
type Writer struct {
	w   io.Writer
	buf []byte
	n   int64 // bytes handed to w
	crc uint32
	err error
}

// NewWriter starts a stream with magic.
func NewWriter(w io.Writer, magic string) *Writer {
	fw := &Writer{w: w, buf: make([]byte, 0, bufSize+binary.MaxVarintLen64)}
	fw.buf = append(fw.buf, magic...)
	return fw
}

// through checksums p and hands it to the underlying writer.
func (w *Writer) through(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.n += int64(len(p))
	_, w.err = w.w.Write(p)
}

// Offset returns the number of stream bytes written so far, the magic
// included: a Reader's Offset after it has read the same values.
func (w *Writer) Offset() int64 { return w.n + int64(len(w.buf)) }

func (w *Writer) flush() {
	w.through(w.buf)
	w.buf = w.buf[:0]
}

// Uvarint writes v as an unsigned varint, one- and two-byte ones inline.
func (w *Writer) Uvarint(v uint64) {
	switch {
	case v < 1<<7:
		w.buf = append(w.buf, byte(v))
	case v < 1<<14:
		w.buf = append(w.buf, byte(v)|0x80, byte(v>>7))
	default:
		w.buf = binary.AppendUvarint(w.buf, v)
	}
	if len(w.buf) >= bufSize {
		w.flush()
	}
}

// Uint64 writes v as 8 little-endian bytes.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	if len(w.buf) >= bufSize {
		w.flush()
	}
}

// Bytes writes len(b) as a varint, then b itself, uncopied.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.flush()
	w.through(b)
}

// String writes s as Bytes writes []byte(s), copied through the buffer: the
// form for many short strings, which Bytes would each hand to the
// underlying writer on its own.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	for len(s) > 0 {
		k := min(len(s), bufSize-len(w.buf))
		w.buf = append(w.buf, s[:k]...)
		s = s[k:]
		if len(w.buf) >= bufSize {
			w.flush()
		}
	}
}

// Close writes the CRC-32C trailer and returns the first error of the
// stream. It does not close the underlying writer.
func (w *Writer) Close() error {
	w.flush()
	if w.err == nil {
		_, w.err = w.w.Write(binary.LittleEndian.AppendUint32(nil, w.crc))
	}
	return w.err
}

// Reader decodes a stream written by Writer. After the first error every
// read returns zero, so a loop whose trip count came from the stream must
// get its memory through Grow, which stops it.
type Reader struct {
	r        io.Reader
	buf      []byte
	pos, end int   // buf[pos:end] is buffered and unread
	hashed   int   // buf[hashed:pos] is consumed but not yet in crc
	read     int64 // bytes taken from r
	crc      uint32
	err      error
}

// NewReader checks the stream's magic and returns a Reader positioned
// after it.
func NewReader(r io.Reader, magic string) (*Reader, error) {
	fr := &Reader{r: r, buf: make([]byte, bufSize)}
	if !fr.need(len(magic)) {
		return nil, fr.err
	}
	if string(fr.buf[:len(magic)]) != magic {
		return nil, fmt.Errorf("flat: bad magic %q, want %q", fr.buf[:len(magic)], magic)
	}
	fr.pos = len(magic)
	return fr, nil
}

// need reports whether n unread bytes are buffered, reading more if not.
func (r *Reader) need(n int) bool {
	return r.end-r.pos >= n || r.fill(n)
}

func (r *Reader) fill(n int) bool {
	if r.err != nil {
		return false
	}
	r.crc = crc32.Update(r.crc, castagnoli, r.buf[r.hashed:r.pos])
	r.end = copy(r.buf, r.buf[r.pos:r.end])
	r.pos, r.hashed = 0, 0
	m, err := io.ReadAtLeast(r.r, r.buf[r.end:], n-r.end)
	r.end += m
	r.read += int64(m)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		r.fail(err)
	}
	return err == nil
}

// fail records the stream's first error and drops what is buffered, so
// that every later read returns zero.
func (r *Reader) fail(err error) {
	r.err = err
	r.pos, r.end, r.hashed = 0, 0, 0
}

// Offset returns the number of stream bytes consumed so far, the magic
// included: what a decoder has been sent, whatever it claims. Once the
// stream has failed it stops moving.
func (r *Reader) Offset() int64 { return r.read - int64(r.end-r.pos) }

// Err returns the first error of the stream.
func (r *Reader) Err() error { return r.err }

// Uvarint reads an unsigned varint: inline when it is one or two bytes
// long and buffered — nearly all of an index section's key deltas, heads,
// gaps and counts — and byte by byte otherwise.
func (r *Reader) Uvarint() uint64 {
	if p := r.pos; p < r.end {
		b := r.buf[p]
		if b < 0x80 {
			r.pos = p + 1
			return uint64(b)
		}
		if p+1 < r.end {
			if c := r.buf[p+1]; c < 0x80 {
				r.pos = p + 2
				return uint64(b&0x7f) | uint64(c)<<7
			}
		}
	}
	return r.uvarintSlow()
}

func (r *Reader) uvarintSlow() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if !r.need(1) {
			return 0
		}
		b := r.buf[r.pos]
		r.pos++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return v | uint64(b)<<shift
		}
		v |= uint64(b&0x7f) << shift
	}
	if r.err == nil {
		r.fail(errVarint)
	}
	return 0
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if !r.need(8) {
		return 0
	}
	p := r.pos
	r.pos = p + 8
	return binary.LittleEndian.Uint64(r.buf[p:])
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (r *Reader) Bytes() []byte { return r.rest(nil, r.Uvarint()) }

// AppendBytes reads a length-prefixed byte string, written by Bytes or
// String, onto the end of dst: the form for a caller that builds many
// values in one scratch buffer. It returns nil once the stream has failed.
func (r *Reader) AppendBytes(dst []byte) []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	return r.rest(dst, n)
}

// String reads a length-prefixed byte string, written by Bytes or String,
// as a string: one allocation when the buffer holds all of it.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n <= uint64(r.end-r.pos) {
		s := string(r.buf[r.pos : r.pos+int(n)])
		r.pos += int(n)
		return s
	}
	return string(r.rest(nil, n))
}

// rest appends the n bytes of a byte string to out, growing it with the
// bytes that arrive.
func (r *Reader) rest(out []byte, n uint64) []byte {
	for n > 0 {
		if !r.need(1) {
			return nil
		}
		take := r.end - r.pos
		if n < uint64(take) {
			take = int(n)
		}
		out = append(out, r.buf[r.pos:r.pos+take]...)
		r.pos += take
		n -= uint64(take)
	}
	return out
}

// Close verifies the trailer against the bytes consumed and that the
// stream ends with it. It returns the first error of the stream and does
// not close the underlying reader.
func (r *Reader) Close() error {
	if !r.need(4) {
		return r.err
	}
	crc := crc32.Update(r.crc, castagnoli, r.buf[r.hashed:r.pos])
	if crc != binary.LittleEndian.Uint32(r.buf[r.pos:]) {
		r.fail(ErrChecksum)
		return r.err
	}
	r.pos += 4
	r.hashed = r.pos
	if r.need(1) {
		r.fail(errors.New("flat: bytes after the checksum"))
	} else if r.err == io.ErrUnexpectedEOF {
		r.err = nil
	}
	return r.err
}

// Grow returns s with room for more elements on its way to the n the
// stream claims: at least growMin in total, at most growFactor times what
// has already been decoded, never more than n — and nothing once the
// stream has failed. An honest stream therefore ends in an arena of
// exactly n elements after copying a fraction of it, and a lying one costs
// memory in proportion to the bytes it really sent.
func Grow[T any](r *Reader, s []T, n int) ([]T, error) {
	if r.err != nil {
		return nil, r.err
	}
	c := max(growFactor*len(s), growMin)
	if c > n {
		c = n
	}
	return append(make([]T, 0, c), s...), nil
}

const (
	growMin    = 4096
	growFactor = 8
)
