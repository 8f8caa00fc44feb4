package core

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/spatial"
)

// rerunDHT runs every Apply transform twice: first on a decoy derived from
// the stored value, with the result discarded, then on the stored value
// itself — what dht.RemoteApply does after losing a CAS.
type rerunDHT struct {
	dht.DHT
	decoy func(cur any, exists bool) (any, bool)
}

func (r rerunDHT) Range(fn func(dht.Key, any) bool) error {
	return r.DHT.(dht.Enumerator).Range(fn)
}

func (r rerunDHT) Apply(key dht.Key, fn dht.ApplyFunc) error {
	return r.DHT.Apply(key, func(cur any, exists bool) (any, bool) {
		fn(r.decoy(cur, exists))
		return fn(cur, exists)
	})
}

// TestInsertApplyRerunSafe: an insert's outcome and its split count come
// from the run of the transform that committed, not from an earlier one.
func TestInsertApplyRerunSafe(t *testing.T) {
	const theta = 6
	decoys := map[string]func(cur any, exists bool) (any, bool){
		// The bucket is gone: the earlier run reports a stale leaf.
		"vanished": func(any, bool) (any, bool) { return nil, false },
		// The bucket is full: the earlier run splits it.
		"full": func(cur any, exists bool) (any, bool) {
			b, ok := cur.(Bucket)
			if !ok {
				return cur, exists
			}
			records := b.Records()
			for i := 0; i <= theta; i++ {
				records = append(records, spatial.Record{Key: spatial.Point{float64(i) / 8, 0.5}, Data: "decoy"})
			}
			return NewBucket(b.Label, records), true
		},
	}
	for name, decoy := range decoys {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batch=%v", name, batch), func(t *testing.T) {
				ix, err := New(rerunDHT{DHT: dht.MustNewLocal(4), decoy: decoy}, Options{ThetaSplit: theta, ThetaMerge: 2, Sleep: dht.NoSleep})
				if err != nil {
					t.Fatal(err)
				}
				records := genRecords(3, theta-1)
				if batch {
					for i, err := range ix.InsertBatch(records) {
						if err != nil {
							t.Fatalf("record %d: %v", i, err)
						}
					}
				} else {
					for _, r := range records {
						if err := ix.Insert(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				if s := ix.Stats(); s.Splits != 0 {
					t.Errorf("%d splits counted, the stored bucket never split", s.Splits)
				}
				buckets, err := ix.Buckets()
				if err != nil {
					t.Fatal(err)
				}
				if len(buckets) != 1 || !sameRecordSet(buckets[0].Records(), records) {
					t.Fatalf("index holds %d buckets, want the root holding exactly the %d inserted records", len(buckets), len(records))
				}
			})
		}
	}
}

// TestDeleteApplyRerunSafe: a delete reports the removal only when the run
// that committed removed the record.
func TestDeleteApplyRerunSafe(t *testing.T) {
	ghost := spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "ghost"}
	withGhost := func(cur any, exists bool) (any, bool) {
		b, ok := cur.(Bucket)
		if !ok {
			return cur, exists
		}
		return NewBucket(b.Label, append(b.Records(), ghost)), true
	}
	ix, err := New(rerunDHT{DHT: dht.MustNewLocal(4), decoy: withGhost}, Options{ThetaSplit: 6, ThetaMerge: 2})
	if err != nil {
		t.Fatal(err)
	}
	records := genRecords(4, 3)
	for _, r := range records {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if removed, err := ix.Delete(ghost.Key, ghost.Data); err != nil || removed {
		t.Fatalf("Delete of a record only an earlier run saw = %v, %v; want false, nil", removed, err)
	}
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 1 || !sameRecordSet(buckets[0].Records(), records) {
		t.Fatalf("index holds %d buckets, want the root holding exactly the %d inserted records", len(buckets), len(records))
	}
}

// hookBeforeApply runs hook once, just before forwarding the next Apply: the
// window between an operation's lookup and its apply, where another client
// may change the leaf the lookup found.
type hookBeforeApply struct {
	dht.DHT
	hook func()
}

func (h *hookBeforeApply) Apply(key dht.Key, fn dht.ApplyFunc) error {
	if hook := h.hook; hook != nil {
		h.hook = nil
		hook()
	}
	return h.DHT.Apply(key, fn)
}

// TestDeleteRetriesLeafSplitBeforeApply: a delete whose leaf splits between
// its lookup and its apply finds the record in the split leaf instead of
// reporting it missing.
func TestDeleteRetriesLeafSplitBeforeApply(t *testing.T) {
	const theta = 6
	local := dht.MustNewLocal(4)
	opts := Options{ThetaSplit: theta, ThetaMerge: 2, Sleep: dht.NoSleep}
	race := &hookBeforeApply{DHT: local}
	ix, err := New(race, opts)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(local, opts)
	if err != nil {
		t.Fatal(err)
	}
	records := genRecords(5, theta-1)
	for _, r := range records {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// The delete's lookup finds the root leaf; before its apply lands,
	// another client overfills the root and splits it.
	more := genRecords(6, theta)
	race.hook = func() {
		for _, r := range more {
			if err := other.Insert(r); err != nil {
				t.Error(err)
			}
		}
	}
	target := records[0]
	if removed, err := ix.Delete(target.Key, target.Data); err != nil || !removed {
		t.Fatalf("Delete across a split = %v, %v; want true, nil", removed, err)
	}
	if s := other.Stats(); s.Splits == 0 {
		t.Fatal("the other client's inserts never split the leaf; the test exercised nothing")
	}
	all, err := spatial.NewRect(spatial.Point{0, 0}, spatial.Point{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.RangeQuery(all)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]spatial.Record(nil), records[1:]...), more...)
	if !sameRecordSet(res.Records, want) {
		t.Fatalf("index holds %d records after the delete, want the %d others", len(res.Records), len(want))
	}
}
