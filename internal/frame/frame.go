// Package frame is the varint framing the MDTR trace and MDPF profile
// formats share: an append-only encoder of raw bytes, unsigned and
// signed varints and length-prefixed strings; a cursor decoder whose
// first malformed field sticks; and the FNV-64a trailer both formats
// close with. Each format keeps its own magic, version, error messages
// and trailer byte order.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Encoder accumulates a varint-framed body in memory; errors are
// impossible (append never fails), keeping call sites linear.
type Encoder struct {
	Buf []byte
}

func (e *Encoder) Write(p []byte)   { e.Buf = append(e.Buf, p...) }
func (e *Encoder) Byte(b byte)      { e.Buf = append(e.Buf, b) }
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Encoder) Varint(v int64)   { e.Buf = binary.AppendVarint(e.Buf, v) }
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Seal appends the FNV-64a sum of everything written so far as an
// 8-byte trailer in the given byte order, and returns the sum.
func (e *Encoder) Seal(order binary.AppendByteOrder) uint64 {
	sum := fnvSum(e.Buf)
	e.Buf = order.AppendUint64(e.Buf, sum)
	return sum
}

// Split separates a sealed artifact of at least 8 bytes into its body,
// the sum its trailer stores (read in the given byte order) and the sum
// the body actually has; they differ when the artifact is corrupt or
// truncated.
func Split(data []byte, order binary.ByteOrder) (body []byte, stored, sum uint64) {
	body = data[:len(data)-8]
	return body, order.Uint64(data[len(body):]), fnvSum(body)
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Decoder is the cursor-based counterpart of Encoder; the first
// malformed field sticks in Err and every later read returns zero
// values.
type Decoder struct {
	buf []byte
	pos int
	// Err is the first malformed field's error.
	Err error
}

// NewDecoder returns a decoder at the start of buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Rest returns the number of bytes not yet read.
func (d *Decoder) Rest() int { return len(d.buf) - d.pos }

func (d *Decoder) fail(what string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("truncated %s at offset %d", what, d.pos)
	}
}

// Read fills p with the next len(p) bytes.
func (d *Decoder) Read(p []byte) {
	if d.Err != nil {
		return
	}
	if d.pos+len(p) > len(d.buf) {
		d.fail("bytes")
		return
	}
	copy(p, d.buf[d.pos:])
	d.pos += len(p)
}

func (d *Decoder) Byte() byte {
	if d.Err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *Decoder) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.pos += n
	return v
}

func (d *Decoder) Varint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.pos += n
	return v
}

// Count reads a collection length, bounding it by the bytes remaining
// so corrupt input cannot force a huge allocation.
func (d *Decoder) Count() int {
	v := d.Uvarint()
	if d.Err == nil && v > uint64(d.Rest()) {
		d.fail("collection length")
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Count()
	if d.Err != nil {
		return ""
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s
}
