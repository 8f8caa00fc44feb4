package core

import (
	"fmt"
	"time"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
)

// Insert adds a record to the index (paper §4): a lookup locates the leaf
// bucket, the record is applied at the owning peer, and if the bucket's
// load now warrants it the peer splits locally. Per Theorem 5 exactly one
// piece of a split keeps the old DHT key, so only the other pieces are
// re-assigned with DHT puts — the incremental maintenance that halves
// m-LIGHT's split cost relative to PHT.
func (ix *Index) Insert(rec spatial.Record) error {
	m := ix.opts.Dims
	if rec.Key.Dim() != m {
		return fmt.Errorf("%w: record has %d dims, index has %d", ErrDimension, rec.Key.Dim(), m)
	}
	if !rec.Key.Valid() {
		return fmt.Errorf("core: record key %v outside the unit cube", rec.Key)
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			// The leaf split or merged between lookup and apply.
			ix.awaitSplits(attempt)
		}
		b, err := ix.Lookup(rec.Key)
		if err != nil {
			return err
		}
		done, err := ix.insertAt(b.Label, rec)
		if done || err != nil {
			return err
		}
	}
	return fmt.Errorf("core: insert %v: too many conflicting bucket changes", rec.Key)
}

// maxAttempts bounds the tries of an operation that keeps meeting a split
// in flight: a lookup that finds no covering bucket, an insert whose leaf
// changed before its apply.
const maxAttempts = 12

// awaitSplits waits before retry n (n ≥ 1) of an operation that met a split
// in flight: first until this client's own split pieces are placed (see
// Index.placing), then a backoff, since another client's relocated buckets
// become visible within a few put operations. The sleeper is injectable
// (Options.Sleep) so tests stay deterministic.
func (ix *Index) awaitSplits(n int) {
	ix.placing.Lock()
	ix.placing.Unlock()
	ix.opts.Sleep(time.Duration(1<<uint(min(n, 6))) * 25 * time.Microsecond)
}

// insertAt applies rec to the leaf the lookup found and places any split
// pieces, holding ix.placing for reading so an Insert that cannot find its
// leaf can wait until the pieces are visible. It reports false when the
// leaf split or merged between lookup and apply, so the caller retries.
func (ix *Index) insertAt(label bitlabel.Label, rec spatial.Record) (bool, error) {
	ix.placing.RLock()
	defer ix.placing.RUnlock()
	moved, stale, err := ix.applyInsert(label, rec)
	if err != nil {
		return false, err
	}
	if stale {
		ix.invalidateLeaf(label)
		return false, nil
	}
	// The inserted record itself crossed the DHT to its bucket.
	ix.stats.RecordsMoved.Inc()
	if len(moved) == 0 {
		return true, nil
	}
	// The leaf split: the old label no longer names a leaf, and the
	// relocated pieces are fresh leaves this client just observed.
	ix.invalidateLeaf(label)
	if ix.cache != nil {
		for _, c := range moved {
			ix.cache.add(c.Label)
		}
	}
	return true, ix.placeCells(moved)
}

// applyInsert runs at the owning peer: it appends the record to the bucket
// stored under fmd(label), decides whether to split, keeps the piece named
// to the existing key in place, and reports the pieces that must move.
func (ix *Index) applyInsert(label bitlabel.Label, rec spatial.Record) (moved []kdtree.Cell, stale bool, err error) {
	m := ix.opts.Dims
	key := labelKey(bitlabel.Name(label, m))
	var splitErr error
	var splits int64
	applyErr := ix.d.Apply(key, func(cur any, exists bool) (any, bool) {
		// A remote Apply re-runs the transform after a lost CAS: every
		// output describes the last run only.
		moved, stale, splitErr, splits = nil, false, nil, 0
		if !exists {
			stale = true
			return nil, false
		}
		cb, ok := cur.(Bucket)
		if !ok || cb.Label != label {
			stale = true
			return cur, true
		}
		g, regionErr := spatial.RegionOf(cb.Label, m)
		if regionErr != nil {
			splitErr = regionErr
			return cur, true
		}
		if !g.Contains(rec.Key) {
			// The leaf changed shape since the lookup.
			stale = true
			return cur, true
		}
		// A plain arena append is safe without copying the whole bucket:
		// readers holding the previous Bucket value see their own shorter
		// arenas and never index past them, and the kd-tree split functions
		// build fresh slices rather than mutating their input. Shared-capacity
		// growth is therefore invisible to every concurrent observer.
		nb := cb.Append(rec)
		if ix.underSplitBound(nb.Load(), label) {
			// The common case: the bucket stays a leaf. No record
			// materialization, no split machinery — amortized O(1).
			return nb, true
		}
		cell := kdtree.Cell{Label: cb.Label, Region: g, Records: nb.Records()}
		pieces, decideErr := ix.decideSplit(cell)
		if decideErr != nil {
			splitErr = decideErr
			return cur, true
		}
		if len(pieces) <= 1 {
			return nb, true
		}
		stay, rest, pickErr := pickStayer(pieces, label, m)
		if pickErr != nil {
			splitErr = pickErr
			return cur, true
		}
		moved = rest
		splits = int64(len(pieces) - 1)
		return NewBucket(stay.Label, stay.Records), true
	})
	if applyErr != nil {
		return nil, false, fmt.Errorf("core: insert apply at %v: %w", label, applyErr)
	}
	if splitErr != nil {
		return nil, false, fmt.Errorf("core: insert split at %v: %w", label, splitErr)
	}
	ix.stats.Splits.Add(splits)
	return moved, stale, nil
}

// underSplitBound reports whether a bucket at the given load cannot split
// under the configured strategy — the fast-path check that lets the insert
// path skip record materialization entirely. It mirrors decideSplit's
// no-split preconditions exactly; unknown strategies return false so
// decideSplit gets to surface its error.
func (ix *Index) underSplitBound(load int, label bitlabel.Label) bool {
	switch ix.opts.Strategy {
	case SplitThreshold:
		return load <= ix.opts.ThetaSplit || ix.remainingDepth(label) <= 0
	case SplitDataAware:
		return load <= ix.opts.Epsilon || ix.remainingDepth(label) <= 0
	}
	return false
}

// decideSplit returns the final leaf frontier for a (possibly overfull)
// cell under the configured strategy. A single-element result means no
// split.
func (ix *Index) decideSplit(cell kdtree.Cell) ([]kdtree.Cell, error) {
	depth := ix.remainingDepth(cell.Label)
	switch ix.opts.Strategy {
	case SplitThreshold:
		if cell.Load() <= ix.opts.ThetaSplit || depth <= 0 {
			return []kdtree.Cell{cell}, nil
		}
		return kdtree.ThresholdSplit(cell, ix.opts.Dims, ix.opts.ThetaSplit, depth)
	case SplitDataAware:
		if cell.Load() <= ix.opts.Epsilon || depth <= 0 {
			return []kdtree.Cell{cell}, nil
		}
		cells, improved, err := kdtree.OptimalSplit(cell, ix.opts.Dims, ix.opts.Epsilon, depth)
		if err != nil {
			return nil, err
		}
		if !improved {
			return []kdtree.Cell{cell}, nil
		}
		return cells, nil
	default:
		return nil, fmt.Errorf("core: unknown split strategy %v", ix.opts.Strategy)
	}
}

// pickStayer finds the unique frontier piece whose name equals the split
// leaf's own name — by the subtree naming bijection exactly one exists —
// so it keeps the old key and peer, while the rest move.
func pickStayer(pieces []kdtree.Cell, oldLabel bitlabel.Label, m int) (stay kdtree.Cell, moved []kdtree.Cell, err error) {
	oldName := bitlabel.Name(oldLabel, m)
	found := false
	for _, p := range pieces {
		if bitlabel.Name(p.Label, m) == oldName {
			if found {
				return kdtree.Cell{}, nil, fmt.Errorf("core: two pieces named %v splitting %v", oldName, oldLabel)
			}
			stay = p
			found = true
			continue
		}
		moved = append(moved, p)
	}
	if !found {
		return kdtree.Cell{}, nil, fmt.Errorf("core: no piece named %v splitting %v", oldName, oldLabel)
	}
	return stay, moved, nil
}

// placeCells writes relocated buckets to their DHT keys in one PutBatch
// round — the destinations are independent leaves, so the transfers overlap
// up to Options.MaxInFlight instead of paying one blocking round trip per
// bucket — charging the data movement the transfers cost. Empty cells still
// become buckets (the bijection requires a bucket per leaf); they move no
// records. The per-bucket logical charge is unchanged: one DHT operation and
// Load() moved records per placed bucket.
func (ix *Index) placeCells(cells []kdtree.Cell) error {
	if len(cells) == 0 {
		return nil
	}
	m := ix.opts.Dims
	ops := make([]dht.PutOp, len(cells))
	for i, c := range cells {
		ops[i] = dht.PutOp{
			Key:   labelKey(bitlabel.Name(c.Label, m)),
			Value: NewBucket(c.Label, c.Records),
		}
	}
	for i, err := range dht.PutBatch(ix.d, ops, ix.opts.MaxInFlight) {
		if err != nil {
			return fmt.Errorf("core: place bucket %v: %w", cells[i].Label, err)
		}
		ix.stats.RecordsMoved.Add(int64(cells[i].Load()))
	}
	return nil
}

// Delete removes one record matching key (and Data when non-empty). It
// reports whether a record was removed, merging underfull sibling leaves
// afterwards (§4.1): the merged bucket keeps the key one child already
// occupies, so only the other child's records cross the DHT.
func (ix *Index) Delete(key spatial.Point, data string) (bool, error) {
	m := ix.opts.Dims
	if key.Dim() != m {
		return false, fmt.Errorf("%w: key has %d dims, index has %d", ErrDimension, key.Dim(), m)
	}
	b, err := ix.Lookup(key)
	if err != nil {
		return false, err
	}
	removed := false
	var after Bucket
	dhtKey := labelKey(bitlabel.Name(b.Label, m))
	applyErr := ix.d.Apply(dhtKey, func(cur any, exists bool) (any, bool) {
		removed, after = false, Bucket{} // describe the last run only (see applyInsert)
		if !exists {
			return nil, false
		}
		cb, ok := cur.(Bucket)
		if !ok || cb.Label != b.Label {
			return cur, true
		}
		for i, n := 0, cb.Load(); i < n; i++ {
			if samePoint(cb.KeyAt(i), key) && (data == "" || cb.DataAt(i) == data) {
				// Pack fresh arenas — an in-place shift would mutate storage
				// concurrent readers share. One exact-size repack.
				records := make([]spatial.Record, 0, n-1)
				for j := 0; j < n; j++ {
					if j != i {
						records = append(records, cb.RecordAt(j))
					}
				}
				cb = NewBucket(cb.Label, records)
				removed = true
				break
			}
		}
		after = cb
		return cb, true
	})
	if applyErr != nil {
		return false, fmt.Errorf("core: delete apply at %v: %w", b.Label, applyErr)
	}
	if !removed {
		return false, nil
	}
	if err := ix.mergeUpwards(after); err != nil {
		return true, err
	}
	return true, nil
}

// mergeUpwards merges the bucket with its sibling leaf while the pair
// jointly holds fewer than θmerge records, cascading towards the root.
func (ix *Index) mergeUpwards(b Bucket) error {
	m := ix.opts.Dims
	for b.Label != bitlabel.Root(m) {
		sibLabel := b.Label.Sibling()
		sib, found, err := ix.getBucket(bitlabel.Name(sibLabel, m), nil)
		if err != nil {
			return err
		}
		if !found || sib.Label != sibLabel {
			// The sibling is an internal node (its key hosts some deeper
			// corner leaf) or missing: no merge possible.
			return nil
		}
		if b.Load()+sib.Load() >= ix.opts.ThetaMerge {
			return nil
		}
		parent := b.Label.Parent()
		parentName := bitlabel.Name(parent, m)
		merged := NewBucket(parent, append(b.Records(), sib.Records()...))
		if bitlabel.Name(b.Label, m) == parentName {
			// We already sit at the merged bucket's key: rewrite locally,
			// and pull the sibling's bucket across the DHT.
			if err := ix.raw.Put(labelKey(parentName), merged); err != nil {
				return fmt.Errorf("core: merge rewrite %v: %w", parent, err)
			}
			if err := ix.d.Remove(labelKey(bitlabel.Name(sibLabel, m))); err != nil {
				return fmt.Errorf("core: merge remove %v: %w", sibLabel, err)
			}
			ix.stats.RecordsMoved.Add(int64(sib.Load()))
		} else {
			// The sibling sits at the merged key: ship our records there
			// and retire our own bucket locally.
			if err := ix.d.Put(labelKey(parentName), merged); err != nil {
				return fmt.Errorf("core: merge write %v: %w", parent, err)
			}
			ix.stats.RecordsMoved.Add(int64(b.Load()))
			if err := ix.raw.Remove(labelKey(bitlabel.Name(b.Label, m))); err != nil {
				return fmt.Errorf("core: merge retire %v: %w", b.Label, err)
			}
		}
		ix.stats.Merges.Inc()
		// Both children are gone; the parent is the leaf this client just
		// wrote.
		ix.invalidateLeaf(b.Label)
		ix.invalidateLeaf(sibLabel)
		ix.cacheLeaf(merged)
		b = merged
	}
	return nil
}
