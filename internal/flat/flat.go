// Package flat is the byte layer of the repo's persisted arenas: an engine
// snapshot (internal/engine), its graph and index sections included, is a
// magic string, a body of unsigned varints, exp-Golomb bit codes, fixed
// 8-byte words and byte strings, and a CRC-32C trailer over everything
// before it. Writer and Reader each own a 64 KiB buffer, so a caller may
// hand them a bare *os.File or a network stream; both keep the first error
// and report it from Close (Reader also from Err), so hot loops carry no
// error plumbing.
//
// Bit codes pack most significant bit first. Every byte-level value (a
// varint, a word, a byte string, the trailer) starts on a byte boundary:
// the writer pads the codes before it with zero bits, and the reader
// refuses padding that is not zero, so each value has one encoding. A
// section of codes calls Align at its end, so the next section starts on
// a byte of its own.
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
	"math/bits"
)

// bufSize is the size of each buffer; a Reader starts with firstBufSize
// and takes the full size once the stream outgrows it, so a short stream
// costs the allocation of a short one.
const (
	bufSize      = 64 << 10
	firstBufSize = 4 << 10
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	// ErrChecksum reports a stream whose bytes differ from the ones written.
	ErrChecksum = errors.New("flat: checksum mismatch")
	errVarint   = errors.New("flat: varint overflows 64 bits")
	errPrefix   = errors.New("flat: exp-Golomb prefix of 64 or more zeros")
	errCode     = errors.New("flat: exp-Golomb code overflows 64 bits")
	errPadding  = errors.New("flat: non-zero padding before a byte boundary")
)

// Writer streams one checksummed body to w.
type Writer struct {
	w    io.Writer
	buf  []byte
	n    int64  // bytes handed to w
	acc  uint64 // the low nacc bits are written but not yet in buf
	nacc uint   // below 32 between calls
	crc  uint32
	err  error
}

// NewWriter starts a stream with magic.
func NewWriter(w io.Writer, magic string) *Writer {
	// Room past bufSize for the longest value: a varint after the bytes
	// Align moves out of acc.
	fw := &Writer{w: w, buf: make([]byte, 0, bufSize+4+binary.MaxVarintLen64)}
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

// Offset returns the number of whole stream bytes written so far, the
// magic included.
func (w *Writer) Offset() int64 { return w.BitOffset() >> 3 }

// BitOffset returns the number of stream bits written so far, the magic
// included: a Reader's BitOffset after it has read the same values.
func (w *Writer) BitOffset() int64 { return 8*(w.n+int64(len(w.buf))) + int64(w.nacc) }

func (w *Writer) flush() {
	w.through(w.buf)
	w.buf = w.buf[:0]
}

// ExpGolomb writes v as the exp-Golomb code of order k: u = v+2^k, which
// has l = bits.Len64(u) > k bits, written in 2l-k-1 bits — l-k-1 zeros,
// then u. A value below 2^k costs k+1 bits, and each doubling past it two
// more. v+2^k must fit 64 bits; a larger v fails the stream.
func (w *Writer) ExpGolomb(v uint64, k uint) {
	u := v + 1<<(k&63)
	l := uint(bits.Len64(u))
	switch n := 2*l - k - 1; {
	case n <= 32 && u >= v && k < 64:
		w.put(u, n)
	case u < v || k > 63:
		if w.err == nil {
			w.err = errCode
		}
		return
	default:
		for z := l - k - 1; z > 0; z -= min(z, 32) { // at most 63 zeros
			w.put(0, min(z, 32))
		}
		w.put(u>>32, l-min(l, 32))
		w.put(u&(1<<32-1), min(l, 32))
	}
	if len(w.buf) >= bufSize {
		w.flush()
	}
}

// put writes the low n ≤ 32 bits of x, which has none above them, into
// acc, and acc's top 32 bits into buf once it holds them.
func (w *Writer) put(x uint64, n uint) {
	w.acc = w.acc<<(n&63) | x
	if w.nacc += n; w.nacc >= 32 {
		w.nacc -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>(w.nacc&63)))
	}
}

// Align pads the codes written so far with zero bits to a byte boundary
// and moves them into buf.
func (w *Writer) Align() {
	if w.nacc == 0 {
		return
	}
	w.put(0, -w.nacc&7)
	for w.nacc > 0 {
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nacc))
	}
}

// Uvarint writes v as an unsigned varint, one- and two-byte ones inline.
func (w *Writer) Uvarint(v uint64) {
	if w.nacc != 0 {
		w.Align()
	}
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
	w.Align()
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
	w.Raw(s)
}

// Raw writes the bytes of s with no length before them, from a byte
// boundary: for a reader that learns their length another way.
func (w *Writer) Raw(s string) {
	w.Align()
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
	w.Align()
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
	pos, end int // buf[pos:end] is buffered and unread
	// acc holds the next nacc bits of the stream, taken from the buffer
	// ahead of buf[pos], most significant first; below them it holds
	// nothing or the bits that follow, from buf[pos] on. A byte-level read
	// first aligns, which hands acc's whole bytes back to the buffer and
	// clears it.
	acc    uint64
	nacc   uint
	hashed int   // buf[hashed:pos] is consumed but not yet in crc
	read   int64 // bytes taken from r
	crc    uint32
	err    error
}

// NewReader checks the stream's magic and returns a Reader positioned
// after it.
func NewReader(r io.Reader, magic string) (*Reader, error) {
	fr := &Reader{r: r, buf: make([]byte, firstBufSize)}
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
	if len(r.buf) < bufSize && r.read >= int64(len(r.buf)) {
		r.buf = append(make([]byte, 0, bufSize), r.buf...)[:bufSize]
	}
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
	r.pos, r.end, r.hashed, r.acc, r.nacc = 0, 0, 0, 0, 0
}

// BitOffset returns the number of stream bits consumed so far, the magic
// included: what a decoder has been sent, whatever it claims. Once the
// stream has failed it stops moving.
func (r *Reader) BitOffset() int64 { return 8*(r.read-int64(r.end-r.pos)) - int64(r.nacc) }

// ExpGolomb reads an exp-Golomb code of order k (see Writer.ExpGolomb):
// from acc, topped up from the next 8 bytes while the buffer holds them —
// every code of up to 56 bits but near a refill — and bit by bit
// otherwise. A prefix of 64 or more zeros, a code whose value overflows 64
// bits or one the stream cuts off fails the stream.
func (r *Reader) ExpGolomb(k uint) uint64 {
	acc, nacc := r.acc, r.nacc
	if r.end-r.pos >= 8 {
		// Top up to 56 bits or more: the bits past the whole bytes counted
		// are the next byte's, where the next top-up puts them again.
		acc |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> (nacc & 63)
		r.pos += int((63 - nacc) >> 3)
		nacc |= 56
	}
	// acc's top n bits are the code, its z zeros and then v+2^k. nacc is
	// below 64, so acc's last bit is never read here and n is below 64:
	// the masks say so. An acc of zeros goes to the slow path.
	z := uint(bits.LeadingZeros64(acc | 1))
	if n := 2*z + k + 1; n <= nacc {
		r.acc, r.nacc = acc<<(n&63), nacc-n
		return acc>>(-n&63) - 1<<(k&63)
	}
	r.acc, r.nacc = acc, nacc
	return r.expGolombSlow(k)
}

func (r *Reader) expGolombSlow(k uint) uint64 {
	r.unread()
	z := uint(0)
	for r.readBit() == 0 {
		if r.err != nil {
			return 0
		}
		if z++; z == 64 {
			r.fail(errPrefix)
			return 0
		}
	}
	l := z + k + 1
	if l > 64 {
		if r.err == nil {
			r.fail(errCode)
		}
		return 0
	}
	u := uint64(1)
	for i := uint(1); i < l; i++ {
		u = u<<1 | r.readBit()
	}
	if r.err != nil {
		return 0
	}
	return u - 1<<k
}

// unread hands acc's whole bytes back to the buffer, where they came from
// since the last fill, and clears what lies below the bits it keeps.
func (r *Reader) unread() {
	r.pos -= int(r.nacc >> 3)
	r.nacc &= 7
	r.acc &^= ^uint64(0) >> r.nacc
}

// readBit reads one bit, 0 once the stream has failed.
func (r *Reader) readBit() uint64 {
	if r.nacc == 0 {
		if !r.need(1) {
			return 0
		}
		r.acc, r.nacc = uint64(r.buf[r.pos])<<56, 8
		r.pos++
	}
	b := r.acc >> 63
	r.acc <<= 1
	r.nacc--
	return b
}

// Align skips the padding to the next byte boundary, failing the stream
// if a padding bit is not zero.
func (r *Reader) Align() {
	if r.nacc != 0 {
		if r.unread(); r.acc != 0 {
			r.fail(errPadding)
		}
	}
	// What acc holds below its bits follows pos, which byte-level reads
	// move: it goes.
	r.acc, r.nacc = 0, 0
}

// Err returns the first error of the stream.
func (r *Reader) Err() error { return r.err }

// Uvarint reads an unsigned varint: inline when it is one or two bytes
// long and buffered, and byte by byte otherwise.
func (r *Reader) Uvarint() uint64 {
	if p := r.pos; p < r.end && r.nacc == 0 {
		r.acc = 0 // see Align
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
	r.Align()
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
	if r.Align(); !r.need(8) {
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

// AppendRaw reads n bytes written by Raw onto the end of dst, growing it
// with the bytes that arrive. It returns nil once the stream has failed.
func (r *Reader) AppendRaw(dst []byte, n uint64) []byte {
	if r.Align(); r.err != nil {
		return nil
	}
	return r.rest(dst, n)
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
	if r.Align(); !r.need(4) {
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
