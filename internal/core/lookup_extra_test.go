package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

func TestEstimateDepth(t *testing.T) {
	ix := newIndex(t, Options{ThetaSplit: 10, ThetaMerge: 5, Seed: 1})
	// Empty index: only the root leaf, depth 0.
	d, err := ix.EstimateDepth(50)
	if err != nil || d != 0 {
		t.Fatalf("empty index depth = %d, %v", d, err)
	}
	rng := rand.New(rand.NewSource(3))
	for i, p := range randomPoints(rng, 2, 2000) {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	d, err = ix.EstimateDepth(300)
	if err != nil {
		t.Fatal(err)
	}
	// 2000 records at θ=10 gives ≥200 leaves: depth at least log2(200) ≈ 8.
	if d < 8 || d > ix.Options().MaxDepth {
		t.Errorf("estimated depth = %d, expected within [8, %d]", d, ix.Options().MaxDepth)
	}
	// The estimate never exceeds the true maximum over all buckets.
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	trueMax := 0
	for _, b := range buckets {
		if depth := b.Label.Len() - 3; depth > trueMax {
			trueMax = depth
		}
	}
	if d > trueMax {
		t.Errorf("estimate %d above true max %d", d, trueMax)
	}
	if _, err := ix.EstimateDepth(0); err == nil {
		t.Error("samples=0 accepted")
	}
	// The probe sampling is seeded from Options, so on an unchanged index
	// repeated estimates are replayable bit-for-bit.
	d2, err := ix.EstimateDepth(300)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Errorf("repeated estimate = %d, first = %d; sampling not replayable", d2, d)
	}
}

// TestSeedRoundTripsThroughTuning pins the Options↔Tuning mapping for Seed:
// a facade-level WithSeed must reach EstimateDepth's probe source.
func TestSeedRoundTripsThroughTuning(t *testing.T) {
	o := Options{Seed: 42}
	var tun struct{ index.Tuning }
	o.Apply(&tun.Tuning)
	if tun.Seed != 42 {
		t.Fatalf("Apply lost Seed: %d", tun.Seed)
	}
	back := FromTuning(tun.Tuning)
	if back.Seed != 42 {
		t.Fatalf("FromTuning lost Seed: %d", back.Seed)
	}
}

// TestLookupWaitsOutAnotherClientsSplit: a reader whose lookup lands while
// another client's split has not yet placed a moved piece retries after its
// backoff, instead of failing with ErrNotFound.
func TestLookupWaitsOutAnotherClientsSplit(t *testing.T) {
	d := dht.MustNewLocal(16)
	writer, err := New(d, Options{ThetaSplit: 4, ThetaMerge: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range genRecords(5, 40) {
		if err := writer.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Take out a bucket that does not sit at the root's key: it is the
	// moved piece of a split whose put has not landed yet.
	buckets, err := writer.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	rootKey := labelKey(bitlabel.Name(bitlabel.Root(2), 2))
	var moved Bucket
	for _, b := range buckets {
		if b.Load() > 0 && b.Key(2) != rootKey {
			moved = b
			break
		}
	}
	if err := d.Remove(moved.Key(2)); err != nil {
		t.Fatal(err)
	}
	backoffs := 0
	reader, err := New(d, Options{ThetaSplit: 4, ThetaMerge: 2, Sleep: func(time.Duration) {
		// The piece lands while the reader backs off.
		if backoffs++; backoffs == 2 {
			if err := d.Put(moved.Key(2), moved); err != nil {
				t.Error(err)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := reader.Exact(moved.KeyAt(0))
	if err != nil || len(got) == 0 {
		t.Fatalf("Exact during a split in flight = %v, %v", got, err)
	}
	if backoffs != 2 {
		t.Fatalf("lookup backed off %d times, want 2", backoffs)
	}
}
