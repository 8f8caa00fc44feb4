package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/spatial"
)

// mixedDimsBucket is a 2-record bucket whose first record has 3 dims and
// whose second has none. The record-at-a-time decoder accepted it and left
// a bucket that panicked in KeyAt(1) and MarshalBucket.
var mixedDimsBucket = []byte{
	0,                      // label length
	0, 0, 0, 0, 0, 0, 0, 0, // label bits
	2,                            // record count
	3,                            // record 0: dims
	0, 0, 0, 0, 0, 0, 0xd0, 0x3f, // 0.25
	0, 0, 0, 0, 0, 0, 0xe0, 0x3f, // 0.5
	0, 0, 0, 0, 0, 0, 0xe8, 0x3f, // 0.75
	0, // record 0: data length
	0, // record 1: dims
	0, // record 1: data length
}

func TestUnmarshalBucketRejectsMixedDims(t *testing.T) {
	if _, records, err := oracleUnmarshal(mixedDimsBucket); err != nil || !mixedDims(records) {
		t.Fatalf("fixture is not a mixed-dims bucket: %v, %v", records, err)
	}
	if _, err := UnmarshalBucket(mixedDimsBucket); !errors.Is(err, ErrMalformed) {
		t.Fatalf("mixed-dims bucket: err = %v, want ErrMalformed", err)
	}
}

// randomRecords draws a record set of one random dimensionality, with
// payloads long enough to need multi-byte length varints and keys that
// include the float values a bit-level codec must keep apart.
func randomRecords(rng *rand.Rand, maxRecords int) []spatial.Record {
	special := []float64{0, math.Copysign(0, -1), 1, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}
	dims := rng.Intn(5)
	records := make([]spatial.Record, rng.Intn(maxRecords+1))
	for i := range records {
		key := make(spatial.Point, dims)
		for d := range key {
			if rng.Intn(8) == 0 {
				key[d] = special[rng.Intn(len(special))]
			} else {
				key[d] = rng.Float64()
			}
		}
		data := make([]byte, rng.Intn(3)*rng.Intn(90))
		rng.Read(data)
		records[i] = spatial.Record{Key: key, Data: string(data)}
	}
	return records
}

func randomLabel(rng *rand.Rand) bitlabel.Label {
	return bitlabel.New(rng.Uint64(), rng.Intn(bitlabel.MaxLen+1))
}

// checkAgainstOracle decodes data with both decoders and requires the same
// verdict and the same bucket. Mixed dimensionality is the one frame only
// the arena decoder rejects.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	wantLabel, wantRecords, oracleErr := oracleUnmarshal(data)
	b, err := UnmarshalBucket(data)
	if err != nil && !errors.Is(err, ErrMalformed) {
		t.Fatalf("%x: error %v does not wrap ErrMalformed", data, err)
	}
	switch {
	case oracleErr != nil:
		if err == nil {
			t.Fatalf("%x: decoded, oracle rejects: %v", data, oracleErr)
		}
	case mixedDims(wantRecords):
		if err == nil {
			t.Fatalf("%x: mixed-dims bucket accepted", data)
		}
	case err != nil:
		t.Fatalf("%x: rejected (%v), oracle accepts", data, err)
	default:
		if b.Label != wantLabel {
			t.Fatalf("%x: label %v, oracle %v", data, b.Label, wantLabel)
		}
		if err := sameRecords(b, wantRecords); err != nil {
			t.Fatalf("%x: %v", data, err)
		}
	}
}

// TestUnmarshalBucketMatchesOracle is the differential test of the arena
// decoder against the record-at-a-time one: random buckets, then every
// truncation and a spread of single-byte mutations of smaller ones.
func TestUnmarshalBucketMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		checkAgainstOracle(t, oracleMarshal(randomLabel(rng), randomRecords(rng, 40)))
	}
	for trial := 0; trial < 80; trial++ {
		enc := oracleMarshal(randomLabel(rng), randomRecords(rng, 4))
		for cut := 0; cut < len(enc); cut++ {
			checkAgainstOracle(t, enc[:cut])
		}
		mutated := make([]byte, len(enc))
		for pos := range enc {
			for _, v := range []byte{enc[pos] ^ 0x01, enc[pos] ^ 0x80, 0x00, 0x7f, 0xff, byte(rng.Intn(256))} {
				copy(mutated, enc)
				mutated[pos] = v
				checkAgainstOracle(t, mutated)
			}
		}
		checkAgainstOracle(t, append(enc, 0))
	}
}

// TestMarshalBucketMatchesOracle: the encoder is byte-identical to the
// original record-at-a-time encoder, through every entry point.
func TestMarshalBucketMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		label, records := randomLabel(rng), randomRecords(rng, 40)
		want := oracleMarshal(label, records)
		b := core.NewBucket(label, records)
		if got := MarshalBucket(b); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: MarshalBucket %x, oracle %x", trial, got, want)
		}
		// A bucket grown by Append (arenas with spare capacity) encodes
		// the same as a packed one.
		grown := core.Bucket{Label: label}
		for _, r := range records {
			grown = grown.Append(r)
		}
		got, err := BucketCodec{}.Marshal(grown)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: BucketCodec.Marshal %x (%v), oracle %x", trial, got, err, want)
		}
	}
}

// TestUnmarshalBucketCopiesInput: a decoded bucket owns its arenas. On
// simnet the input is the owner's live stored value, so overwriting it must
// not change a bucket decoded from it.
func TestUnmarshalBucketCopiesInput(t *testing.T) {
	records := []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "alpha"},
		{Key: spatial.Point{0.5, 0.125}, Data: "beta"},
	}
	enc := MarshalBucket(core.NewBucket(bitlabel.Root(2), records))
	b, err := UnmarshalBucket(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xAA
	}
	if err := sameRecords(b, records); err != nil {
		t.Fatalf("decoded bucket aliases its input: %v", err)
	}
}

// rerunApply decorates a substrate so that Apply first runs the transform
// on a decoy value and discards the result, then runs it for real — the
// shape of dht.RemoteApply retrying after a lost CAS.
type rerunApply struct {
	dht.DHT
	decoy any
}

func (r rerunApply) Apply(key dht.Key, fn dht.ApplyFunc) error {
	fn(r.decoy, true)
	return r.DHT.Apply(key, fn)
}

// TestByteDHTApplyRerunSafe: a codec error from an earlier run of the
// transform does not outlive the run that committed. The committing run
// creates the key, so it decodes nothing that could overwrite the error.
func TestByteDHTApplyRerunSafe(t *testing.T) {
	b := NewByteDHT(rerunApply{DHT: dht.MustNewLocal(1), decoy: []byte{1, 2, 3}}, BucketCodec{})
	rec := spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "x"}
	err := b.Apply("k", func(cur any, exists bool) (any, bool) {
		if exists {
			return cur, true
		}
		return core.Bucket{Label: bitlabel.Root(2)}.Append(rec), true
	})
	if err != nil {
		t.Fatalf("committed Apply reports an earlier run's error: %v", err)
	}
	got, found, err := b.Get("k")
	if err != nil || !found || got.(core.Bucket).Load() != 1 {
		t.Fatalf("after Apply: %v, %v, %v", got, found, err)
	}
}

// nePayloadBucket is a bucket shaped like the NE workload's: 2-d keys and
// short decimal payloads.
func nePayloadBucket(n int) core.Bucket {
	rng := rand.New(rand.NewSource(int64(n)))
	b := core.Bucket{Label: bitlabel.MustParse("0011011")}
	for i := 0; i < n; i++ {
		b = b.Append(spatial.Record{
			Key:  spatial.Point{rng.Float64(), rng.Float64()},
			Data: fmt.Sprint(rng.Intn(123593)),
		})
	}
	return b
}

// Benchmark results land in package-level sinks so the compiler cannot
// drop the measured calls.
var (
	bucketSink core.Bucket
	bytesSink  []byte
)

func BenchmarkUnmarshalBucket(b *testing.B) {
	enc := MarshalBucket(nePayloadBucket(50))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if bucketSink, err = UnmarshalBucket(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalBucket(b *testing.B) {
	bucket := nePayloadBucket(50)
	b.SetBytes(int64(len(MarshalBucket(bucket))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bytesSink = MarshalBucket(bucket)
	}
}
