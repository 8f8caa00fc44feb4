package main

import (
	"fmt"
	"math"
	"sync"

	"mlight/internal/core"
	"mlight/internal/spatial"
)

// gridSide is the resolution of the model's uniform grid over the unit
// square: 256² cells keep a span-0.4 range check to a few tens of
// thousands of candidate records on the NE dataset.
const gridSide = 256

// modelRec is one record the benchmark knows about, with the logical time
// of each event that changed whether the index should hold it. A zero stamp
// means the event has not happened.
type modelRec struct {
	key                                spatial.Point
	data                               string
	insStart, insEnd, delStart, delEnd int64
}

// model is the answer oracle: every record the clients inserted or
// deleted, stamped on one logical clock. A query that began at qs and was
// checked at qe must return every record inserted before qs and not
// deleted before qe, and may return only records that could have been
// present at some instant of [qs, qe]. With one client the two sets
// coincide and the check is exact.
type model struct {
	mu     sync.Mutex
	clock  int64
	recs   []modelRec
	byData map[string]int32
	grid   [gridSide * gridSide][]int32
	seen   []uint32
	gen    uint32
}

func newModel() *model {
	return &model{byData: make(map[string]int32)}
}

func cellCoord(x float64) int {
	c := int(x * gridSide)
	return max(0, min(c, gridSide-1))
}

func cellOf(p spatial.Point) int { return cellCoord(p[1])*gridSide + cellCoord(p[0]) }

// add registers a record the workload may insert later and returns its
// model index.
func (m *model) add(r spatial.Record) int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := int32(len(m.recs))
	m.recs = append(m.recs, modelRec{key: r.Key, data: r.Data})
	m.byData[r.Data] = idx
	m.seen = append(m.seen, 0)
	return idx
}

// record returns the record at a model index.
func (m *model) record(idx int32) spatial.Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return spatial.Record{Key: m.recs[idx].key, Data: m.recs[idx].data}
}

// beginQuery returns the logical start time of a query.
func (m *model) beginQuery() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	return m.clock
}

func (m *model) beginInsert(idx int32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	r := &m.recs[idx]
	r.insStart = m.clock
	c := cellOf(r.key)
	m.grid[c] = append(m.grid[c], idx)
}

// endInsert records a completed insert. A failed insert leaves insEnd unset:
// the record may or may not be stored, so no later answer is required to
// hold it and none is wrong for holding it.
func (m *model) endInsert(idx int32, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	if ok {
		m.recs[idx].insEnd = m.clock
	}
}

// preload marks a record as stored by set-up.
func (m *model) preload(idx int32) {
	m.beginInsert(idx)
	m.endInsert(idx, true)
}

func (m *model) beginDelete(idx int32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	m.recs[idx].delStart = m.clock
}

// endDelete records a completed delete; a failed one leaves the record
// possibly present for good.
func (m *model) endDelete(idx int32, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	if ok {
		m.recs[idx].delEnd = m.clock
	}
}

func (r *modelRec) must(qs, qe int64) bool {
	return r.insEnd != 0 && r.insEnd < qs && (r.delStart == 0 || r.delStart > qe)
}

func (r *modelRec) possible(qs, qe int64) bool {
	return r.insStart != 0 && r.insStart < qe && (r.delEnd == 0 || r.delEnd > qs)
}

// markAnswer validates the returned records against the model and marks
// them seen; key reports whether a record's key is acceptable for the
// query. It must run under m.mu.
func (m *model) markAnswer(got []spatial.Record, qs, qe int64, key func(spatial.Point) bool) error {
	m.gen++
	for _, g := range got {
		idx, ok := m.byData[g.Data]
		if !ok {
			return fmt.Errorf("record %q was never inserted", g.Data)
		}
		r := &m.recs[idx]
		if !samePoint(g.Key, r.key) {
			return fmt.Errorf("record %q returned at %v, stored at %v", g.Data, g.Key, r.key)
		}
		if !key(g.Key) {
			return fmt.Errorf("record %q at %v lies outside the query", g.Data, g.Key)
		}
		if !r.possible(qs, qe) {
			return fmt.Errorf("record %q was not stored while the query ran (query %d..%d, insert %d..%d, delete %d..%d)",
				g.Data, qs, qe, r.insStart, r.insEnd, r.delStart, r.delEnd)
		}
		if m.seen[idx] == m.gen {
			return fmt.Errorf("record %q returned twice", g.Data)
		}
		m.seen[idx] = m.gen
	}
	return nil
}

// missing scans the grid cells overlapping [lo, hi] for a record that had
// to be in the answer, satisfies in, and was not marked by markAnswer. It
// must run under m.mu.
func (m *model) missing(lo, hi spatial.Point, qs, qe int64, in func(spatial.Point) bool) error {
	for cy := cellCoord(lo[1]); cy <= cellCoord(hi[1]); cy++ {
		for cx := cellCoord(lo[0]); cx <= cellCoord(hi[0]); cx++ {
			for _, idx := range m.grid[cy*gridSide+cx] {
				r := &m.recs[idx]
				if m.seen[idx] != m.gen && r.must(qs, qe) && in(r.key) {
					return fmt.Errorf("record %q at %v is missing", r.data, r.key)
				}
			}
		}
	}
	return nil
}

// checkRange verifies a range answer.
func (m *model) checkRange(q spatial.Rect, got []spatial.Record, qs int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	qe := m.clock
	if err := m.markAnswer(got, qs, qe, q.Contains); err != nil {
		return err
	}
	return m.missing(q.Lo, q.Hi, qs, qe, q.Contains)
}

// checkPoint verifies an exact-match answer.
func (m *model) checkPoint(key spatial.Point, got []spatial.Record, qs int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	qe := m.clock
	same := func(p spatial.Point) bool { return samePoint(p, key) }
	if err := m.markAnswer(got, qs, qe, same); err != nil {
		return err
	}
	return m.missing(key, key, qs, qe, same)
}

// checkKNN verifies a k-nearest-neighbour answer: k records, each possibly
// present, and no record that had to be present lies strictly closer to
// the centre than the farthest one returned.
func (m *model) checkKNN(center spatial.Point, k int, got []core.Neighbor, qs int64) error {
	if len(got) != k {
		return fmt.Errorf("kNN returned %d neighbours, want %d", len(got), k)
	}
	recs := make([]spatial.Record, len(got))
	radius := 0.0
	for i, n := range got {
		recs[i] = n.Record
		radius = math.Max(radius, dist(center, n.Record.Key))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	qe := m.clock
	if err := m.markAnswer(recs, qs, qe, func(spatial.Point) bool { return true }); err != nil {
		return err
	}
	lo := spatial.Point{center[0] - radius, center[1] - radius}
	hi := spatial.Point{center[0] + radius, center[1] + radius}
	return m.missing(lo, hi, qs, qe, func(p spatial.Point) bool { return dist(center, p) < radius })
}

// userBytes sums the key and payload bytes of every record stored at the
// end of a run: the denominator of the wire layer's space amplification.
func (m *model) userBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for i := range m.recs {
		r := &m.recs[i]
		if r.insEnd != 0 && r.delStart == 0 {
			n += int64(8*len(r.key) + len(r.data))
		}
	}
	return n
}

func samePoint(a, b spatial.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func dist(a, b spatial.Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
