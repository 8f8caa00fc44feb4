package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/spatial"
)

// This file keeps the original record-at-a-time bucket codec as a
// test-only oracle for the arena codec in core: the encoder pins the byte
// format, the decoder pins which frames are accepted and what they hold.
// The decoder returns plain records rather than a core.Bucket so that
// frames the arena codec rejects (records of mixed dimensionality) can
// still be inspected.

var errOracle = errors.New("oracle: malformed encoding")

func oracleAppendPoint(buf []byte, p spatial.Point) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	for _, c := range p {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
	}
	return buf
}

func oracleAppendRecord(buf []byte, r spatial.Record) []byte {
	buf = oracleAppendPoint(buf, r.Key)
	buf = binary.AppendUvarint(buf, uint64(len(r.Data)))
	return append(buf, r.Data...)
}

func oracleMarshal(label bitlabel.Label, records []spatial.Record) []byte {
	buf := make([]byte, 0, 16+len(records)*40)
	buf = append(buf, byte(label.Len()))
	buf = binary.LittleEndian.AppendUint64(buf, label.Bits())
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for _, r := range records {
		buf = oracleAppendRecord(buf, r)
	}
	return buf
}

func oracleDecodePoint(buf []byte) (spatial.Point, []byte, error) {
	dims, n := binary.Uvarint(buf)
	if n <= 0 || dims > 1<<16 {
		return nil, nil, fmt.Errorf("%w: point dims", errOracle)
	}
	buf = buf[n:]
	if len(buf) < int(dims)*8 {
		return nil, nil, fmt.Errorf("%w: point truncated", errOracle)
	}
	p := make(spatial.Point, dims)
	for i := range p {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return p, buf[dims*8:], nil
}

func oracleDecodeRecord(buf []byte) (spatial.Record, []byte, error) {
	key, rest, err := oracleDecodePoint(buf)
	if err != nil {
		return spatial.Record{}, nil, err
	}
	size, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < size {
		return spatial.Record{}, nil, fmt.Errorf("%w: record data", errOracle)
	}
	rest = rest[n:]
	return spatial.Record{Key: key, Data: string(rest[:size])}, rest[size:], nil
}

func oracleUnmarshal(buf []byte) (bitlabel.Label, []spatial.Record, error) {
	if len(buf) < 9 {
		return bitlabel.Label{}, nil, fmt.Errorf("%w: bucket header", errOracle)
	}
	labelLen := int(buf[0])
	if labelLen > bitlabel.MaxLen {
		return bitlabel.Label{}, nil, fmt.Errorf("%w: label length %d", errOracle, labelLen)
	}
	label := bitlabel.New(binary.LittleEndian.Uint64(buf[1:9]), labelLen)
	rest := buf[9:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return bitlabel.Label{}, nil, fmt.Errorf("%w: record count", errOracle)
	}
	rest = rest[n:]
	if count > uint64(len(rest)/2)+1 {
		return bitlabel.Label{}, nil, fmt.Errorf("%w: record count %d exceeds payload", errOracle, count)
	}
	var records []spatial.Record
	for i := uint64(0); i < count; i++ {
		var rec spatial.Record
		var err error
		rec, rest, err = oracleDecodeRecord(rest)
		if err != nil {
			return bitlabel.Label{}, nil, fmt.Errorf("record %d: %w", i, err)
		}
		records = append(records, rec)
	}
	if len(rest) != 0 {
		return bitlabel.Label{}, nil, fmt.Errorf("%w: %d trailing bytes", errOracle, len(rest))
	}
	return label, records, nil
}

// mixedDims reports whether the records differ in dimensionality.
func mixedDims(records []spatial.Record) bool {
	for _, r := range records {
		if r.Key.Dim() != records[0].Key.Dim() {
			return true
		}
	}
	return false
}

// sameRecords reports whether b holds exactly records, in order, with keys
// compared bit for bit (so NaN and -0 coordinates count).
func sameRecords(b core.Bucket, records []spatial.Record) error {
	if b.Load() != len(records) {
		return fmt.Errorf("load %d, want %d", b.Load(), len(records))
	}
	for i, r := range records {
		if b.DataAt(i) != r.Data {
			return fmt.Errorf("record %d: data %q, want %q", i, b.DataAt(i), r.Data)
		}
		key := b.KeyAt(i)
		if len(key) != len(r.Key) {
			return fmt.Errorf("record %d: %d dims, want %d", i, len(key), len(r.Key))
		}
		for d := range key {
			if math.Float64bits(key[d]) != math.Float64bits(r.Key[d]) {
				return fmt.Errorf("record %d: coordinate %d is %v, want %v", i, d, key[d], r.Key[d])
			}
		}
	}
	return nil
}
