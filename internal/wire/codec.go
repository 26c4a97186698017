package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Writer appends little-endian fields to Buf. Fixed-width integers take
// their full width (an int64 travels as its two's-complement u64), strings
// and byte slices a u32 length prefix, and a counted sequence is a u32
// count followed by its elements, which the caller writes.
type Writer struct{ Buf []byte }

func (w *Writer) U8(v byte)        { w.Buf = append(w.Buf, v) }
func (w *Writer) U32(v uint32)     { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)     { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }
func (w *Writer) I64(v int64)      { w.U64(uint64(v)) }
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

func (w *Writer) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.Buf = append(w.Buf, p...)
}

// The reader's sticky errors. They are static so a rejecting read
// allocates nothing.
var (
	errShort  = errors.New("wire: field runs past the end of the input")
	errCount  = errors.New("wire: count exceeds what the remaining bytes can hold")
	errVarint = errors.New("wire: malformed uvarint")
)

// Reader decodes the fields a Writer encodes, in order. The first read
// that does not fit the input poisons the reader: it and every later read
// return zero values, and Err reports the failure. No read allocates more
// than the input's own remaining bytes can back.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err reports the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail poisons the reader with a format-level error of the caller's (an
// unknown tag, say); the first failure sticks.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done reports the first failure, or an error when bytes remain unread: a
// well-formed input is consumed exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if n := len(r.buf) - r.off; n != 0 {
		return fmt.Errorf("wire: %d trailing bytes", n)
	}
	return nil
}

// Next returns the next n bytes, aliasing the input, or nil after poisoning
// the reader when fewer remain.
func (r *Reader) Next(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		r.Fail(errShort)
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

func (r *Reader) U8() byte {
	if p := r.Next(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.Next(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.Next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail(errVarint)
		return 0
	}
	r.off += n
	return v
}

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() string { return string(r.Next(int(r.U32()))) }

// Bytes reads a u32-length-prefixed byte slice into a copy of its own.
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.Next(int(r.U32()))...) }

// Count reads the u32 count of a sequence whose elements take at least
// minSize (≥ 1) bytes each, and rejects a count the remaining bytes cannot
// hold, so the caller may size the sequence from it.
func (r *Reader) Count(minSize int) int {
	n := int(r.U32())
	if !r.fits(n, minSize, len(r.buf)-r.off) {
		return 0
	}
	return n
}

// Delta reads count values of a delta-varint stream (AppendEncoded) that
// fills the next nbytes bytes into a destination of length count from
// take (nil take allocates one). Every value takes at least one byte, so a
// count beyond nbytes is rejected before take is asked for anything.
func (r *Reader) Delta(count, nbytes int, take func(n int) []int64) []int64 {
	p := r.Next(nbytes)
	if !r.fits(count, 1, len(p)) {
		return nil
	}
	var dst []int64
	if take != nil {
		dst = take(count)[:0]
	} else {
		dst = make([]int64, 0, count)
	}
	v, err := Decode(dst, count, p)
	if err != nil {
		r.Fail(err)
		return nil
	}
	return v
}

// fits is the one count-versus-bytes guard: n elements of at least minSize
// bytes each must fit in avail bytes, or the reader is poisoned.
func (r *Reader) fits(n, minSize, avail int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > avail/minSize {
		r.err = errCount
		return false
	}
	return true
}
