package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
)

// This file is the group-commit insert engine: the write-path counterpart of
// the concurrent query execution PR 1 introduced. A sequential Insert pays a
// lookup, one Apply round trip, and one Put per relocated split piece — per
// record. InsertBatch amortises all three: destination leaves are resolved
// with overlapped lookups, every record bound for the same leaf rides one
// Apply, and all relocated pieces of the whole batch ship in one PutBatch
// round. The Writer on top coalesces concurrent Insert callers into such
// batches without timers or background goroutines.
//
// Stats-equality discipline (the invariant PR 1 established for queries):
// batching changes execution, never the maintenance accounting. The group
// Apply replays its records one at a time over a local frontier of cells —
// find the covering cell, append, decide the split, keep the piece named to
// that cell's key — charging Splits and RecordsMoved exactly as the
// sequential stream would have at each intermediate split event. Only the
// final frontier pieces are then placed physically, without re-charging:
// identical trees, identical Splits/RecordsMoved, fewer DHT round trips.
// DHTLookups intentionally differs — that reduction is the point.

// InsertBatch adds a batch of records in one group-committed pass and
// returns a positional error slice: errs[i] is record i's outcome, nil on
// success. Records destined for the same leaf coalesce into a single Apply
// at the owning peer; leaves are processed concurrently up to
// Options.MaxInFlight. Records whose destination moved mid-flight (a
// concurrent split or merge) fall back to the sequential Insert path, in
// stream order, so the batch as a whole has insert-per-record semantics.
func (ix *Index) InsertBatch(recs []spatial.Record) []error {
	errs := make([]error, len(recs))
	if len(recs) == 0 {
		return errs
	}
	m := ix.opts.Dims
	valid := make([]int, 0, len(recs))
	for i, rec := range recs {
		if rec.Key.Dim() != m {
			errs[i] = fmt.Errorf("%w: record has %d dims, index has %d", ErrDimension, rec.Key.Dim(), m)
			continue
		}
		if !rec.Key.Valid() {
			errs[i] = fmt.Errorf("core: record key %v outside the unit cube", rec.Key)
			continue
		}
		valid = append(valid, i)
	}

	// Resolve every record's destination leaf, overlapping the lookups up
	// to the in-flight cap. A lookup that cannot locate a covering bucket
	// (a concurrent split mid-flight) routes the record to the sequential
	// fallback, which retries with backoff.
	labels := make([]bitlabel.Label, len(recs))
	resolveErrs := make([]error, len(recs))
	sem := make(chan struct{}, ix.opts.MaxInFlight)
	var wg sync.WaitGroup
	for _, i := range valid {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			b, err := ix.Lookup(recs[i].Key)
			if err != nil {
				resolveErrs[i] = err
				return
			}
			labels[i] = b.Label
		}(i)
	}
	wg.Wait()

	var fallback []int
	groups := make(map[bitlabel.Label]*insertGroup)
	var order []*insertGroup
	for _, i := range valid {
		if err := resolveErrs[i]; err != nil {
			if errors.Is(err, ErrNotFound) {
				fallback = append(fallback, i)
			} else {
				errs[i] = err
			}
			continue
		}
		g := groups[labels[i]]
		if g == nil {
			g = &insertGroup{label: labels[i]}
			groups[labels[i]] = g
			order = append(order, g)
		}
		// Stream order is preserved within a group: valid is ascending.
		g.recIdx = append(g.recIdx, i)
	}

	// One Apply per destination leaf, all leaves in flight at once. The
	// placing lock is read-held until the relocated pieces are placed (see
	// Insert).
	ix.placing.RLock()
	ops := make([]dht.ApplyOp, len(order))
	for j, g := range order {
		ops[j] = dht.ApplyOp{Key: labelKey(bitlabel.Name(g.label, m)), Fn: ix.groupCommit(g, recs)}
	}
	applyErrs := dht.ApplyBatch(ix.d, ops, ix.opts.MaxInFlight)

	var placeOps []dht.PutOp
	var placeGroups []*insertGroup
	for j, g := range order {
		if applyErrs[j] != nil {
			for _, i := range g.recIdx {
				errs[i] = fmt.Errorf("core: insert apply at %v: %w", g.label, applyErrs[j])
			}
			continue
		}
		if g.err != nil {
			for _, i := range g.recIdx {
				errs[i] = fmt.Errorf("core: insert split at %v: %w", g.label, g.err)
			}
			continue
		}
		if g.stale {
			// The whole bucket moved between lookup and apply.
			ix.invalidateLeaf(g.label)
			fallback = append(fallback, g.recIdx...)
			continue
		}
		fallback = append(fallback, g.staleRecs...)
		// Charge the replay outcome: exactly what the sequential stream
		// would have charged across its intermediate split events, plus one
		// moved record per accepted insert (the record crossing the DHT to
		// its bucket).
		ix.stats.Splits.Add(g.splits)
		ix.stats.RecordsMoved.Add(g.recMoved + int64(len(g.accepted)))
		if len(g.moved) > 0 {
			ix.invalidateLeaf(g.label)
			if ix.cache != nil {
				for _, c := range g.moved {
					ix.cache.add(c.Label)
				}
			}
			for _, c := range g.moved {
				placeOps = append(placeOps, dht.PutOp{
					Key:   labelKey(bitlabel.Name(c.Label, m)),
					Value: NewBucket(c.Label, c.Records),
				})
				placeGroups = append(placeGroups, g)
			}
		}
	}

	// Ship every relocated piece of the whole batch in one PutBatch round.
	// The movement was already charged at the replay split events; placing
	// the final pieces charges only the DHT operations themselves.
	if len(placeOps) > 0 {
		for k, err := range dht.PutBatch(ix.d, placeOps, ix.opts.MaxInFlight) {
			if err == nil {
				continue
			}
			g := placeGroups[k]
			for _, i := range g.accepted {
				if errs[i] == nil {
					errs[i] = fmt.Errorf("core: place bucket: %w", err)
				}
			}
		}
	}

	ix.placing.RUnlock()

	// Sequential fallback, in stream order.
	sort.Ints(fallback)
	for _, i := range fallback {
		errs[i] = ix.Insert(recs[i])
	}
	return errs
}

// insertGroup is the per-leaf unit of a group commit: the records bound for
// one destination leaf and the outcome of replaying them at the owning peer.
// The outcome fields are reset at the start of every Apply attempt, so a
// retried closure never inherits state from a failed try.
type insertGroup struct {
	label  bitlabel.Label
	recIdx []int // positions in the batch, ascending (stream order)

	stale     bool          // the stored bucket is no longer this leaf
	staleRecs []int         // records the replayed frontier does not cover
	accepted  []int         // records the replay inserted
	moved     []kdtree.Cell // final frontier pieces that must relocate
	splits    int64         // split-piece count, charged as sequential would
	recMoved  int64         // records moved at intermediate split events
	err       error         // split-machinery failure
}

// groupCommit builds the Apply transform for one group: a sequential replay
// of the group's records over a local frontier of cells, seeded with the
// stored bucket. Each record finds its covering frontier cell (the frontier
// partitions the original leaf's region, so exactly one covers it), is
// appended, and may split that cell — the piece named to the cell's key
// replaces it in place (Theorem 5: the stayer keeps the DHT key), the rest
// join the frontier under their own keys. The transform returns the
// frontier's root-slot piece as the bucket to store; the rest are reported
// through the group for batch placement.
func (ix *Index) groupCommit(g *insertGroup, recs []spatial.Record) dht.ApplyFunc {
	m := ix.opts.Dims
	return func(cur any, exists bool) (any, bool) {
		g.stale, g.staleRecs, g.accepted, g.moved = false, nil, nil, nil
		g.splits, g.recMoved, g.err = 0, 0, nil
		if !exists {
			g.stale = true
			return nil, false
		}
		cb, ok := cur.(Bucket)
		if !ok || cb.Label != g.label {
			g.stale = true
			return cur, true
		}
		cell, cellErr := ix.cellOf(cb)
		if cellErr != nil {
			g.err = cellErr
			return cur, true
		}
		frontier := []kdtree.Cell{cell}
		for _, i := range g.recIdx {
			rec := recs[i]
			slot := -1
			for j := range frontier {
				if frontier[j].Region.Contains(rec.Key) {
					slot = j
					break
				}
			}
			if slot < 0 {
				// The record lies outside the leaf this bucket covers: the
				// leaf changed shape since the lookup. Only this record
				// re-enters through the sequential path.
				g.staleRecs = append(g.staleRecs, i)
				continue
			}
			frontier[slot].Records = append(frontier[slot].Records, rec)
			pieces, decideErr := ix.decideSplit(frontier[slot])
			if decideErr != nil {
				g.err = decideErr
				return cur, true
			}
			if len(pieces) > 1 {
				stay, movedPieces, pickErr := pickStayer(pieces, frontier[slot].Label, m)
				if pickErr != nil {
					g.err = pickErr
					return cur, true
				}
				g.splits += int64(len(pieces) - 1)
				for _, p := range movedPieces {
					g.recMoved += int64(p.Load())
				}
				frontier[slot] = stay
				frontier = append(frontier, movedPieces...)
			}
			g.accepted = append(g.accepted, i)
		}
		g.moved = frontier[1:]
		return NewBucket(frontier[0].Label, frontier[0].Records), true
	}
}

// Writer is the group-commit front end for concurrent inserters: callers
// block in Insert while their records coalesce with everyone else's into
// InsertBatch commits. Leadership rotates through a baton channel — whichever
// waiter holds the baton drains the queue (up to Options.WriterBatch records)
// and commits it for the group — so there are no timers and no background
// goroutines: a lone inserter commits immediately, and batches form exactly
// when callers actually overlap.
type Writer struct {
	ix       *Index
	maxBatch int

	mu    sync.Mutex
	queue []*pendingInsert
	// baton holds the single leadership token; taking it makes the caller
	// the committer for the current queue.
	baton chan struct{}
}

// pendingInsert is one queued record and the channel its error comes back on.
type pendingInsert struct {
	rec  spatial.Record
	done chan error
}

// Writer returns the index's group-commit insert engine, created on first
// use. The writer is shared: every goroutine calling Writer().Insert
// participates in the same commit group. The sequential Insert method
// remains available alongside it.
func (ix *Index) Writer() *Writer {
	ix.writerOnce.Do(func() {
		ix.writer = &Writer{
			ix:       ix,
			maxBatch: ix.opts.WriterBatch,
			baton:    make(chan struct{}, 1),
		}
		ix.writer.baton <- struct{}{}
	})
	return ix.writer
}

// Insert adds one record through the group-commit engine, blocking until its
// commit completes. Semantics match Index.Insert: the same errors, the same
// split behaviour, the same maintenance accounting — only the round trips
// are shared with concurrently inserting goroutines.
func (w *Writer) Insert(rec spatial.Record) error {
	p := &pendingInsert{rec: rec, done: make(chan error, 1)}
	w.mu.Lock()
	w.queue = append(w.queue, p)
	w.mu.Unlock()
	for {
		select {
		case err := <-p.done:
			return err
		case <-w.baton:
			w.commit()
			w.baton <- struct{}{}
		}
	}
}

// commit drains up to maxBatch queued inserts and runs them as one
// InsertBatch, delivering each waiter its positional error. Called only by
// the baton holder.
func (w *Writer) commit() {
	w.mu.Lock()
	n := len(w.queue)
	if n > w.maxBatch {
		n = w.maxBatch
	}
	batch := w.queue[:n:n]
	w.queue = append([]*pendingInsert(nil), w.queue[n:]...)
	w.mu.Unlock()
	if n == 0 {
		return
	}
	recs := make([]spatial.Record, n)
	for i, p := range batch {
		recs[i] = p.rec
	}
	errs := w.ix.InsertBatch(recs)
	for i, p := range batch {
		p.done <- errs[i]
	}
}
