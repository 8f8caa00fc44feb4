package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/spatial"
)

func codecTestBucket(n int) Bucket {
	records := make([]spatial.Record, n)
	for i := range records {
		records[i] = spatial.Record{
			Key:  spatial.Point{float64(i%10) / 10, float64(i/10%10) / 10},
			Data: fmt.Sprint(1000 + i),
		}
	}
	return NewBucket(bitlabel.Root(2), records)
}

// TestDecodeBucketAllocs is the decoder's allocation gate: three arenas per
// bucket, whatever its load.
func TestDecodeBucketAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		enc := EncodeBucket(codecTestBucket(n))
		return testing.AllocsPerRun(50, func() {
			if _, err := DecodeBucket(enc); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, hundred := allocs(1), allocs(100)
	if one != hundred || hundred > 3 {
		t.Fatalf("DecodeBucket allocates %.1f objects for 1 record and %.1f for 100, want the same constant ≤ 3", one, hundred)
	}
	enc := codecTestBucket(100)
	if got := testing.AllocsPerRun(50, func() { _ = EncodeBucket(enc) }); got != 1 {
		t.Fatalf("EncodeBucket allocates %.1f objects, want 1", got)
	}
}

func TestEncodeBucketRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 50, 300} {
		b := codecTestBucket(n)
		enc := EncodeBucket(b)
		if len(enc) != cap(enc) {
			t.Fatalf("load %d: encoding len %d, cap %d: size estimate is not exact", n, len(enc), cap(enc))
		}
		back, err := DecodeBucket(enc)
		if err != nil {
			t.Fatalf("load %d: %v", n, err)
		}
		if back.Label != b.Label || !sameRecordSet(back.Records(), b.Records()) {
			t.Fatalf("load %d: round trip differs", n)
		}
	}
}

// snapshotOf frames raw bucket frames as a dims-dimensional snapshot.
func snapshotOf(dims int, frames ...[]byte) []byte {
	buf := []byte(snapshotMagic)
	buf = binary.AppendUvarint(buf, snapshotVersion)
	buf = binary.AppendUvarint(buf, uint64(dims))
	buf = binary.AppendUvarint(buf, uint64(len(frames)))
	for _, f := range frames {
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// TestRestoreRejectsBadFrames: snapshot frames go through the shared codec
// and keep the snapshot's own checks; every rejection wraps ErrSnapshot.
func TestRestoreRejectsBadFrames(t *testing.T) {
	root := bitlabel.Root(2)
	good := EncodeBucket(NewBucket(root, []spatial.Record{{Key: spatial.Point{0.5, 0.5}, Data: "x"}}))
	if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(snapshotOf(2, good)), Options{}); err != nil {
		t.Fatalf("good snapshot refused: %v", err)
	}
	mixed := append(EncodeBucket(NewBucket(root, []spatial.Record{{Key: spatial.Point{0.5, 0.5}}})), 0, 0)
	mixed[9] = 2 // record count: a 2-d record, then a 0-d one
	cases := []struct {
		name  string
		frame []byte
		codec bool // rejected by the codec itself
	}{
		{"truncated", good[:len(good)-1], true},
		{"mixed dims", mixed, true},
		{"wrong dims", EncodeBucket(NewBucket(root, []spatial.Record{{Key: spatial.Point{0.5, 0.5, 0.5}}})), false},
		{"outside cell", EncodeBucket(NewBucket(root.MustAppend(0), []spatial.Record{{Key: spatial.Point{0.9, 0.9}}})), false},
		{"not under root", EncodeBucket(Bucket{Label: bitlabel.MustParse("1")}), false},
	}
	for _, c := range cases {
		_, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(snapshotOf(2, c.frame)), Options{})
		if !errors.Is(err, ErrSnapshot) || errors.Is(err, ErrBucketEncoding) != c.codec {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}
