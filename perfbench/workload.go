package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/metrics"
	"mlight/internal/spatial"
)

type opKind int

const (
	opInsert opKind = iota
	opDelete
	opPoint
	opRange
	opKNN
	numOps
)

var opNames = [numOps]string{"insert", "delete", "point", "range", "knn"}

// knnK is the k of every kNN query.
const knnK = 10

// workload is one traffic mix over one deployment. Every workload runs
// every op kind, because every end-to-end metric is reported on every
// workload; the shares decide which layer does the work.
type workload struct {
	name    string
	tcp     bool // 3 in-process daemons on loopback TCP, else a 128-peer simnet ring
	clients int  // closed-loop client goroutines, each with its own index client
	preload int  // records bulk-loaded during set-up
	mix     [numOps]float64
	spans   []float64 // range side lengths, in equal shares
	// ingest makes the timed phase whole passes that insert the NE-sized
	// dataset into a fresh index, with one read after every readEvery
	// inserts; the reads draw their kind from mix.
	ingest    bool
	readEvery int
}

// writers is how many clients of a workload run the whole mix; the others
// run only its reads. Two clients writing at once lose updates (see
// README.md, "Known defect: two writing clients").
const writers = 1

// simPeers is the size of the simulated chord ring.
const simPeers = 128

// The record corpus is fixed, as the paper's NE dataset is: the NE-sized
// synthetic dataset from one generator seed, followed by freshPerClient
// further records per client that the clients insert. The workload seed
// decides the op stream (insert order, op kinds, query placement), not the
// data distribution, so runs with different seeds measure the same index.
const (
	corpusSeed     = 1
	freshPerClient = 4096
	maxClients     = 2
)

// corpus returns the stored records first (preload or ingest set) and the
// insert pools after them.
func corpus() []spatial.Record {
	return dataset.Generate(dataset.NESize+maxClients*freshPerClient, corpusSeed)
}

// freshPool is client id's pool of records to insert, shuffled by seed.
func freshPool(all []spatial.Record, seed int64, id int) []spatial.Record {
	pool := append([]spatial.Record(nil), all[dataset.NESize+id*freshPerClient:dataset.NESize+(id+1)*freshPerClient]...)
	rand.New(rand.NewSource(seed*1000+int64(id)+7)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

var workloads = map[string]workload{
	"ingest-sim": {
		name: "ingest-sim", clients: 1, ingest: true, readEvery: 20,
		mix:   [numOps]float64{opPoint: 1, opRange: 1, opKNN: 1},
		spans: []float64{0.02},
	},
	"query-sim": {
		name: "query-sim", clients: 1, preload: dataset.NESize,
		mix:   [numOps]float64{opInsert: 0.2, opDelete: 0.2, opRange: 0.24, opPoint: 0.18, opKNN: 0.18},
		spans: []float64{0.02, 0.1, 0.4},
	},
	"mixed-tcp": {
		name: "mixed-tcp", tcp: true, clients: 2, preload: 10000,
		mix:   [numOps]float64{opInsert: 0.2, opDelete: 0.2, opPoint: 0.3, opRange: 0.2, opKNN: 0.1},
		spans: []float64{0.02, 0.1},
	},
}

// windows is how many equal parts a timed phase (each ingest pass) is cut
// into. The end-to-end timings are medians over the parts, so a burst of
// interference on a shared machine moves one part, not the result.
const windows = 5

// window is one part of a timed phase.
type window struct {
	lat [numOps][]float64 // µs, until summarize
	ops int
	dur time.Duration
}

// phaseStats is what one client observed in a phase.
type phaseStats struct {
	win       []window
	cur       int         // window the next timed op falls in
	done      [numOps]int // ops timed
	sum       [numOps]latencySummary
	opsPerS   float64 // median over windows, after summarize
	attempted [numOps]int
	errored   [numOps]int
	wrong     [numOps]int
	lookups   [numOps]int64 // DHT-lookups charged to the op (Stats delta)
	moved     [numOps]int64 // records moved by the op (Stats delta)
	rounds    [numOps]int64 // rounds of lookups (range and kNN answers)
	firstErr  error
	// timed is false during warm-up: outcomes are counted and checked,
	// but no latency or cost is recorded and nothing is traced.
	timed bool
}

// enter makes w the current window.
func (p *phaseStats) enter(w int) {
	for len(p.win) <= w {
		p.win = append(p.win, window{})
	}
	p.cur = w
}

// merge adds another client's ops of the same phase, window by window.
func (p *phaseStats) merge(q *phaseStats) {
	for i := range q.win {
		p.enter(i)
		w := &p.win[i]
		for k := range w.lat {
			w.lat[k] = append(w.lat[k], q.win[i].lat[k]...)
		}
		w.ops += q.win[i].ops
		w.dur = max(w.dur, q.win[i].dur)
	}
	for k := range p.done {
		p.done[k] += q.done[k]
		p.attempted[k] += q.attempted[k]
		p.errored[k] += q.errored[k]
		p.wrong[k] += q.wrong[k]
		p.lookups[k] += q.lookups[k]
		p.moved[k] += q.moved[k]
		p.rounds[k] += q.rounds[k]
	}
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func (p *phaseStats) total() (attempted, failed, wrong, done int) {
	for k := range p.attempted {
		attempted += p.attempted[k]
		failed += p.errored[k] + p.wrong[k]
		wrong += p.wrong[k]
		done += p.done[k]
	}
	return
}

// latencySummary describes one op kind's latencies in a phase. p50 and p95
// are medians over the windows of each window's percentile; p99 is over
// the whole phase.
type latencySummary struct {
	p50, p95, p99 float64
	minPerWindow  int
}

// summarize reduces the latency samples to the phase's summaries and
// releases them, so that the benchmark's own memory does not grow with the
// op count.
func (p *phaseStats) summarize() {
	rates := make([]float64, 0, len(p.win))
	for _, w := range p.win {
		if w.dur > 0 {
			rates = append(rates, float64(w.ops)/w.dur.Seconds())
		}
	}
	p.opsPerS = median(rates)
	for k := range p.sum {
		var p50s, p95s, all []float64
		s := &p.sum[k]
		s.minPerWindow = -1
		for i := range p.win {
			lat := p.win[i].lat[k]
			if s.minPerWindow < 0 || len(lat) < s.minPerWindow {
				s.minPerWindow = len(lat)
			}
			if len(lat) > 0 {
				p50s = append(p50s, quantile(lat, 0.50))
				p95s = append(p95s, quantile(lat, 0.95))
				all = append(all, lat...)
			}
			p.win[i].lat[k] = nil
		}
		s.p50, s.p95, s.p99 = median(p50s), median(p95s), quantile(all, 0.99)
	}
}

// client drives one index client through a closed loop of ops.
type client struct {
	w      *workload
	ix     *core.Index
	m      *model
	t      *opTracer // nil when untraced
	rng    *rand.Rand
	fresh  []spatial.Record // records for inserts
	nextF  int
	id     int
	mix    [numOps]float64 // the workload's mix, without writes for a reader
	live   []int32         // model indices of this client's stored inserts
	ranges int             // range queries issued
	cells  [][]int         // per span, the lattice cells not yet visited this cycle
	// stored bounds the model indices of records point and kNN centres
	// are drawn from: the preloaded dataset, or the inserted prefix of an
	// ingest pass.
	stored int
}

func newClient(w *workload, ix *core.Index, m *model, t *opTracer, fresh []spatial.Record, seed int64, id int) *client {
	c := &client{
		w: w, ix: ix, m: m, t: t, id: id, fresh: fresh, mix: w.mix,
		rng: rand.New(rand.NewSource(seed*1000 + int64(id) + 1)),
	}
	if id >= writers {
		c.mix[opInsert], c.mix[opDelete] = 0, 0
	}
	return c
}

// next draws the next op kind from the mix; a delete with nothing of this
// client's left to delete becomes an insert.
func (c *client) next() opKind {
	total := 0.0
	for _, w := range c.mix {
		total += w
	}
	r := c.rng.Float64() * total
	k := opKind(0)
	for ; k < numOps-1; k++ {
		if r < c.mix[k] {
			break
		}
		r -= c.mix[k]
	}
	if k == opDelete && len(c.live) == 0 {
		k = opInsert
	}
	return k
}

// do runs one op of kind k, checks its answer and records the outcome in
// st.
func (c *client) do(k opKind, st *phaseStats) {
	var (
		before  metrics.Snapshot
		t0, t1  time.Time
		err     error
		check   error
		n       int
		rounds  int
		qs      int64
		traceOn = c.t != nil && st.timed
	)
	switch k {
	case opInsert:
		var idx int32
		var r spatial.Record
		if c.w.ingest {
			idx = int32(c.stored)
			r = c.m.record(idx)
			c.stored++
		} else {
			r = c.fresh[c.nextF%len(c.fresh)]
			r.Data = fmt.Sprintf("c%d.%d", c.id, c.nextF)
			c.nextF++
			idx = c.m.add(r)
		}
		c.m.beginInsert(idx)
		before = c.ix.Stats()
		c.begin(traceOn, k)
		t0 = time.Now()
		err = c.ix.Insert(r)
		t1 = time.Now()
		c.m.endInsert(idx, err == nil)
		if err == nil && !c.w.ingest {
			c.live = append(c.live, idx)
		}
	case opDelete:
		i := c.rng.Intn(len(c.live))
		idx := c.live[i]
		c.live[i] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		rec := c.m.record(idx)
		key, data := rec.Key, rec.Data
		c.m.beginDelete(idx)
		before = c.ix.Stats()
		c.begin(traceOn, k)
		t0 = time.Now()
		var found bool
		found, err = c.ix.Delete(key, data)
		t1 = time.Now()
		c.m.endDelete(idx, err == nil && found)
		if err == nil && !found {
			check = fmt.Errorf("delete of stored record %q found nothing", data)
		}
	case opPoint:
		key := c.storedKey()
		qs = c.m.beginQuery()
		before = c.ix.Stats()
		c.begin(traceOn, k)
		t0 = time.Now()
		var got []spatial.Record
		got, err = c.ix.Exact(key)
		t1 = time.Now()
		if err == nil {
			n = len(got)
			check = c.m.checkPoint(key, got, qs)
		}
	case opRange:
		q := c.rangeRect()
		qs = c.m.beginQuery()
		before = c.ix.Stats()
		c.begin(traceOn, k)
		t0 = time.Now()
		var res *core.QueryResult
		res, err = c.ix.RangeQuery(q)
		t1 = time.Now()
		if err == nil {
			n, rounds = len(res.Records), res.Rounds
			check = c.m.checkRange(q, res.Records, qs)
		}
	case opKNN:
		centre := c.storedKey()
		qs = c.m.beginQuery()
		before = c.ix.Stats()
		c.begin(traceOn, k)
		t0 = time.Now()
		var res *core.NearestResult
		res, err = c.ix.Nearest(centre, knnK)
		t1 = time.Now()
		if err == nil {
			n, rounds = len(res.Neighbors), res.Rounds
			check = c.m.checkKNN(centre, knnK, res.Neighbors, qs)
		}
	}
	if traceOn {
		c.t.finish(t0.Sub(epoch).Nanoseconds(), t1.Sub(epoch).Nanoseconds(), n, rounds)
	}
	st.attempted[k]++
	switch {
	case err != nil:
		st.errored[k]++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("%s: %w", opNames[k], err)
		}
	case check != nil:
		st.wrong[k]++
		if st.wrong[k] <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: %s answer wrong: %v\n", c.id, opNames[k], check)
		}
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("%s answer wrong: %w", opNames[k], check)
		}
	case st.timed:
		after := c.ix.Stats()
		w := &st.win[st.cur]
		w.lat[k] = append(w.lat[k], float64(t1.Sub(t0).Nanoseconds())/1e3)
		w.ops++
		st.done[k]++
		st.lookups[k] += after.DHTLookups - before.DHTLookups
		st.moved[k] += after.RecordsMoved - before.RecordsMoved
		st.rounds[k] += int64(rounds)
	}
}

func (c *client) begin(on bool, k opKind) {
	if on {
		c.t.begin(k)
	}
}

// lattice is the side of the grid of cells range queries are stratified
// over.
const lattice = 16

// rangeRect places the next range query. Spans take turns, so each gets
// an equal share. The lower corner is uniform over [0, 1−span]², stratified:
// the square is cut into lattice² cells that one span's queries visit in a
// seed-shuffled order, one uniform point per cell, so a run samples dense
// and sparse regions in fixed proportions.
func (c *client) rangeRect() spatial.Rect {
	i := c.ranges % len(c.w.spans)
	c.ranges++
	if c.cells == nil {
		c.cells = make([][]int, len(c.w.spans))
	}
	if len(c.cells[i]) == 0 {
		c.cells[i] = c.rng.Perm(lattice * lattice)
	}
	cell := c.cells[i][0]
	c.cells[i] = c.cells[i][1:]
	s := c.w.spans[i]
	x := (float64(cell%lattice) + c.rng.Float64()) / lattice * (1 - s)
	y := (float64(cell/lattice) + c.rng.Float64()) / lattice * (1 - s)
	q, err := spatial.NewRect(spatial.Point{x, y}, spatial.Point{x + s, y + s})
	if err != nil {
		panic(err) // the corners lie in the unit square by construction
	}
	return q
}

// storedKey draws the key of a stored record: a preloaded one, or one the
// current ingest pass has already inserted.
func (c *client) storedKey() spatial.Point {
	return c.m.record(int32(c.rng.Intn(c.stored))).Key
}

// ingestPass inserts records [c.stored, n) of the model in order, with one
// read after every readEvery inserts. A timed pass adds windows equal
// parts of the records as windows of st.
func (c *client) ingestPass(n int, st *phaseStats) {
	base := len(st.win)
	st.enter(base)
	start := time.Now()
	for c.stored < n {
		if w := base + c.stored*windows/n; w != st.cur {
			now := time.Now()
			st.win[st.cur].dur = now.Sub(start)
			st.enter(w)
			start = now
		}
		c.do(opInsert, st)
		if c.stored%c.w.readEvery == 0 {
			c.do(c.next(), st)
		}
	}
	st.win[st.cur].dur = time.Since(start)
}

// warmUp runs ops until a second has passed, a GC cycle has completed and
// at least 200 ops have run: long enough to fill the TCP connection pools
// and see the first stabilize round on the daemons.
func warmUp(clients []*client, st *phaseStats) {
	gc0 := numGC()
	start := time.Now()
	for ops := 0; ; ops++ {
		if ops%32 == 0 && ops >= 200 && time.Since(start) >= time.Second &&
			(numGC() != gc0 || time.Since(start) > 5*time.Second) {
			return
		}
		for _, c := range clients {
			c.do(c.next(), st)
		}
	}
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
