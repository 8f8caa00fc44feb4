package wire

import (
	"bytes"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/spatial"
)

// FuzzUnmarshalBucket: arbitrary bytes never panic and get the oracle's
// verdict; anything that decodes re-encodes to bytes that decode to the
// same label, keys and payloads and re-encode identically (canonical form).
func FuzzUnmarshalBucket(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalBucket(core.Bucket{Label: bitlabel.Root(2)}))
	f.Add(MarshalBucket(core.NewBucket(bitlabel.MustParse("0011011"), []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "x"},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
	})))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
		b, err := UnmarshalBucket(data)
		if err != nil {
			return
		}
		enc := MarshalBucket(b)
		again, err := UnmarshalBucket(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Label != b.Label {
			t.Fatalf("re-decoded label %v, want %v", again.Label, b.Label)
		}
		if err := sameRecords(again, b.Records()); err != nil {
			t.Fatalf("re-decode differs: %v", err)
		}
		if re := MarshalBucket(again); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding %x differs from %x", re, enc)
		}
	})
}

// FuzzDecodeRecord: arbitrary bytes framed as the single record of a
// bucket never panic, and the arena decoder agrees with the
// record-at-a-time oracle on them.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(oracleAppendRecord(nil, spatial.Record{Key: spatial.Point{0.1, 0.9}, Data: "abc"}))
	f.Add([]byte{2})
	f.Fuzz(func(t *testing.T, record []byte) {
		// Root label (length 0, no bits), one record.
		frame := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
		checkAgainstOracle(t, append(frame, record...))
	})
}
