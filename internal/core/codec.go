package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"mlight/internal/bitlabel"
)

// This file is the bucket's byte format — the one codec behind every place a
// bucket leaves the process: the wire adapter (ByteDHT, and through it the
// TCP daemons and the WAL) and the snapshot stream. The format (integers
// little-endian, lengths as uvarint):
//
//	point   = uvarint dims, dims × float64 bits
//	record  = point, uvarint len(data), data bytes
//	bucket  = byte labelLen, uint64 labelBits, uvarint count, count × record
//
// Decoding targets the columnar arenas directly. A first pass validates the
// whole frame and sizes it; a second fills three exactly-sized arenas, so a
// bucket of any load decodes in three allocations. The arenas are copies:
// on simnet the input is the owner's live stored value.

// ErrBucketEncoding reports bytes that are not a well-formed bucket.
var ErrBucketEncoding = errors.New("core: malformed bucket encoding")

// maxEncodedDims bounds a record's declared dimensionality.
const maxEncodedDims = 1 << 16

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// EncodeBucket returns b's encoding in one exactly-sized allocation.
//
//lint:hotpath
func EncodeBucket(b Bucket) []byte {
	r := b.rs
	n := r.len()
	size := 9 + uvarintLen(uint64(n)) + n*(uvarintLen(uint64(r.dims))+8*r.dims)
	for i := 0; i < n; i++ {
		l := uint64(r.offs[i+1] - r.offs[i])
		size += uvarintLen(l) + int(l)
	}
	buf := make([]byte, 0, size) //lint:allow hotpath the one exactly-sized output buffer
	buf = append(buf, byte(b.Label.Len()))
	buf = binary.LittleEndian.AppendUint64(buf, b.Label.Bits())
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, uint64(r.dims))
		for _, c := range r.keyAt(i) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
		}
		lo, hi := r.offs[i], r.offs[i+1]
		buf = binary.AppendUvarint(buf, uint64(hi-lo))
		buf = append(buf, r.data[lo:hi]...)
	}
	return buf
}

// DecodeBucket decodes one bucket. Every error wraps ErrBucketEncoding. The
// records of a bucket must share one dimensionality.
func DecodeBucket(buf []byte) (Bucket, error) {
	if len(buf) < 9 {
		return Bucket{}, fmt.Errorf("%w: bucket header", ErrBucketEncoding)
	}
	labelLen := int(buf[0])
	if labelLen > bitlabel.MaxLen {
		return Bucket{}, fmt.Errorf("%w: label length %d", ErrBucketEncoding, labelLen)
	}
	label := bitlabel.New(binary.LittleEndian.Uint64(buf[1:9]), labelLen)
	body := buf[9:]
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return Bucket{}, fmt.Errorf("%w: record count", ErrBucketEncoding)
	}
	body = body[n:]
	// A record encodes to at least two bytes, so a count beyond len(body)/2
	// cannot be satisfied — reject it before trusting it for allocation.
	if count > uint64(len(body)/2)+1 {
		return Bucket{}, fmt.Errorf("%w: record count %d exceeds payload", ErrBucketEncoding, count)
	}

	// Pass 1: validate every record and size the arenas.
	dims, payload := 0, 0
	rest := body
	for i := 0; i < int(count); i++ {
		d, n := binary.Uvarint(rest)
		if n <= 0 || d > maxEncodedDims {
			return Bucket{}, fmt.Errorf("%w: record %d: point dims", ErrBucketEncoding, i)
		}
		if i == 0 {
			dims = int(d)
		} else if int(d) != dims {
			return Bucket{}, fmt.Errorf("%w: record %d has %d dims, record 0 has %d", ErrBucketEncoding, i, d, dims)
		}
		rest = rest[n:]
		if len(rest) < dims*8 {
			return Bucket{}, fmt.Errorf("%w: record %d: point truncated", ErrBucketEncoding, i)
		}
		rest = rest[dims*8:]
		size, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < size {
			return Bucket{}, fmt.Errorf("%w: record %d: data", ErrBucketEncoding, i)
		}
		rest = rest[n+int(size):]
		payload += int(size)
	}
	if len(rest) != 0 {
		return Bucket{}, fmt.Errorf("%w: %d trailing bytes", ErrBucketEncoding, len(rest))
	}
	if count == 0 {
		return Bucket{Label: label}, nil
	}
	if uint64(payload) > math.MaxUint32 {
		return Bucket{}, fmt.Errorf("%w: %d payload bytes exceed the offset range", ErrBucketEncoding, payload)
	}

	// Pass 2: fill exactly-sized arenas. The frame is known good, so the
	// varints need no further checks.
	r := recs{
		dims:   dims,
		coords: make([]float64, int(count)*dims),
		offs:   make([]uint32, count+1),
		data:   make([]byte, payload),
	}
	rest, at := body, 0
	for i := 0; i < int(count); i++ {
		_, n := binary.Uvarint(rest)
		rest = rest[n:]
		key := r.coords[i*dims : (i+1)*dims]
		for d := range key {
			key[d] = math.Float64frombits(binary.LittleEndian.Uint64(rest[d*8:]))
		}
		rest = rest[dims*8:]
		size, n := binary.Uvarint(rest)
		rest = rest[n:]
		at += copy(r.data[at:], rest[:size])
		rest = rest[size:]
		r.offs[i+1] = uint32(at)
	}
	return Bucket{Label: label, rs: r}, nil
}
