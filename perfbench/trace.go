package main

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/trace"
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// The traced run records spans from outside the program, at four layer
// boundaries: a dht.DHT decorator directly under core (its spans are the
// wire layer's ByteDHT calls), a wire.Codec around wire.BucketCodec, a
// dht.DHT decorator around the chord ring, and a transport.Interface
// wrapper whose Register wraps every handler so the owner's time shows.

// layer orders the span kinds from outermost to innermost; an instant of an
// operation is attributed to the innermost layer with an open span.
type layer uint8

const (
	lCore layer = iota
	lWire
	lChord
	lTransport
	lOwner
	lCodec
	numLayers
)

// DHT method tags.
const (
	mGet uint8 = iota
	mGetBatch
	mPut
	mPutBatch
	mApply
	mApplyBatch
	mRemove
	mOwner
	numMethods
)

// Request tags: the overlay RPCs on an operation's path, and everything
// else (maintenance, replication) in reqOther.
const (
	rLookupStep uint8 = iota
	rPing
	rRetrieve
	rStore
	rApply
	rRemove
	rGetVer
	rCAS
	rOther
	numReqs
)

var reqNames = [numReqs]string{"lookupStep", "ping", "retrieve", "store", "apply", "remove", "getVer", "cas", "other"}

// Codec tags.
const (
	cMarshal uint8 = iota
	cUnmarshal
)

var reqByType = map[string]uint8{
	"chord.lookupStepReq": rLookupStep,
	"chord.pingReq":       rPing,
	"chord.retrieveReq":   rRetrieve,
	"chord.storeReq":      rStore,
	"chord.applyReq":      rApply,
	"chord.removeReq":     rRemove,
	"dht.GetVerReq":       rGetVer,
	"dht.CASReq":          rCAS,
}

func reqTag(req any) uint8 {
	if tag, ok := reqByType[reflect.TypeOf(req).String()]; ok {
		return tag
	}
	return rOther
}

var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

type span struct {
	start, end int64
	l          layer
	tag        uint8
	err        bool
	n          int32 // items in the call, or bytes for a codec span
	hits       int32 // Gets that found a bucket
	recs       int32 // records in the buckets found
}

// opTracer collects the spans of one client's current operation and folds
// them into traceAgg when the operation ends. Spans of one operation share
// its id; a span recorded while no operation is open is dropped.
type opTracer struct {
	cur   atomic.Uint64
	mu    sync.Mutex
	spans []span
	next  uint64
	kind  opKind
	agg   traceAgg
	ev    []event
}

type event struct {
	t int64
	l layer
	d int8
}

func (t *opTracer) on() bool { return t.cur.Load() != 0 }

// begin opens an operation and returns its id.
func (t *opTracer) begin(k opKind) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.kind = k
	t.spans = t.spans[:0]
	t.cur.Store(t.next)
	return t.next
}

func (t *opTracer) record(s span) { t.recordFor(t.cur.Load(), s) }

func (t *opTracer) recordFor(op uint64, s span) {
	if op == 0 {
		return
	}
	t.mu.Lock()
	if t.cur.Load() == op {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// traceAgg accumulates the per-layer figures of a traced phase.
type traceAgg struct {
	ops          [numOps]int64
	opNS         [numOps]int64
	selfNS       [numOps][numLayers]int64
	dhtCalls     [numOps]int64
	probes       int64
	probeHits    int64
	queryProbes  int64 // Gets issued by range and kNN queries
	queryRounds  int64 // rounds those queries report
	scanFetched  int64
	scanReturned int64
	codecNS      [numOps][2]int64
	codecCalls   [2]int64
	codecBytes   [2]int64
	chordNS      [numMethods]int64
	chordN       [numMethods]int64
	callNS       [numReqs]int64
	callN        [numReqs]int64
	callErr      int64
	kindCallN    [numOps][numReqs]int64 // calls per op kind and request type
	kindCallNS   [numOps][numReqs]int64
	kindHandleNS [numOps][numReqs]int64
	handlerNS    [numReqs]int64
	ownerSelfNS  [numReqs]int64
	ownerN       [numReqs]int64
}

func (a *traceAgg) add(b *traceAgg) {
	addInts(a.ops[:], b.ops[:])
	addInts(a.opNS[:], b.opNS[:])
	for k := range a.selfNS {
		addInts(a.selfNS[k][:], b.selfNS[k][:])
		addInts(a.codecNS[k][:], b.codecNS[k][:])
	}
	addInts(a.dhtCalls[:], b.dhtCalls[:])
	a.probes += b.probes
	a.probeHits += b.probeHits
	a.queryProbes += b.queryProbes
	a.queryRounds += b.queryRounds
	a.scanFetched += b.scanFetched
	a.scanReturned += b.scanReturned
	addInts(a.codecCalls[:], b.codecCalls[:])
	addInts(a.codecBytes[:], b.codecBytes[:])
	addInts(a.chordNS[:], b.chordNS[:])
	addInts(a.chordN[:], b.chordN[:])
	addInts(a.callNS[:], b.callNS[:])
	addInts(a.callN[:], b.callN[:])
	a.callErr += b.callErr
	for k := range a.kindCallN {
		addInts(a.kindCallN[k][:], b.kindCallN[k][:])
		addInts(a.kindCallNS[k][:], b.kindCallNS[k][:])
		addInts(a.kindHandleNS[k][:], b.kindHandleNS[k][:])
	}
	addInts(a.handlerNS[:], b.handlerNS[:])
	addInts(a.ownerSelfNS[:], b.ownerSelfNS[:])
	addInts(a.ownerN[:], b.ownerN[:])
}

func addInts(dst, src []int64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// finish closes the current operation, which ran from start to end and
// returned `returned` records in `rounds` rounds of lookups (range and
// kNN), and folds its spans into the aggregate.
func (t *opTracer) finish(start, end int64, returned, rounds int) {
	t.mu.Lock()
	t.cur.Store(0)
	spans, k := t.spans, t.kind
	t.mu.Unlock()

	a := &t.agg
	a.ops[k]++
	a.opNS[k] += end - start
	var codec []span
	for _, s := range spans {
		d := s.end - s.start
		switch s.l {
		case lWire:
			a.dhtCalls[k] += int64(s.n)
			if s.tag == mGet || s.tag == mGetBatch {
				a.probes += int64(s.n)
				a.probeHits += int64(s.hits)
				if k == opRange || k == opKNN {
					a.queryProbes += int64(s.n)
					a.scanFetched += int64(s.recs)
				}
			}
		case lChord:
			a.chordNS[s.tag] += d
			a.chordN[s.tag]++
		case lTransport:
			a.callNS[s.tag] += d
			a.callN[s.tag]++
			a.kindCallNS[k][s.tag] += d
			a.kindCallN[k][s.tag]++
			if s.err {
				a.callErr++
			}
		case lCodec:
			a.codecNS[k][s.tag] += d
			a.codecCalls[s.tag]++
			a.codecBytes[s.tag] += int64(s.n)
			codec = append(codec, s)
		}
	}
	if k == opRange || k == opKNN {
		a.scanReturned += int64(returned)
		a.queryRounds += int64(rounds)
	}
	covered := union(codec)
	for _, s := range spans {
		if s.l == lOwner {
			d := s.end - s.start
			a.handlerNS[s.tag] += d
			a.kindHandleNS[k][s.tag] += d
			a.ownerSelfNS[s.tag] += d - overlap(covered, s.start, s.end)
			a.ownerN[s.tag]++
		}
	}
	t.attribute(spans, start, end, &a.selfNS[k])
}

// attribute splits [start, end] among the layers: each instant goes to the
// innermost layer with an open span, or to core when none is open. With
// concurrent probes this is each layer's self time: its span time minus the
// part its child spans cover.
func (t *opTracer) attribute(spans []span, start, end int64, self *[numLayers]int64) {
	ev := t.ev[:0]
	for _, s := range spans {
		ev = append(ev, event{s.start, s.l, 1}, event{s.end, s.l, -1})
	}
	sort.Slice(ev, func(i, j int) bool { return ev[i].t < ev[j].t })
	t.ev = ev
	var open [numLayers]int
	prev := start
	for _, e := range ev {
		at := max(start, min(e.t, end))
		if at > prev {
			self[innermost(&open)] += at - prev
			prev = at
		}
		open[e.l] += int(e.d)
	}
	if end > prev {
		self[innermost(&open)] += end - prev
	}
}

func innermost(open *[numLayers]int) layer {
	for l := numLayers - 1; l > lCore; l-- {
		if open[l] > 0 {
			return l
		}
	}
	return lCore
}

type interval struct{ start, end int64 }

// union merges the spans' intervals into sorted, disjoint ones.
func union(spans []span) []interval {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.start, s.end}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, iv.end)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// overlap returns how much of [a, b] the disjoint sorted intervals cover.
func overlap(ivs []interval, a, b int64) int64 {
	var sum int64
	for i := sort.Search(len(ivs), func(i int) bool { return ivs[i].end > a }); i < len(ivs) && ivs[i].start < b; i++ {
		sum += min(ivs[i].end, b) - max(ivs[i].start, a)
	}
	return sum
}

// registry pairs an owner-side handler invocation with the client call
// that caused it, so handler time lands in the calling operation's trace.
// Calls are matched by (destination, source, request type), first come
// first served; a handler with no pending call (maintenance traffic
// between nodes) is not traced.
type registry struct {
	mu      sync.Mutex
	pending map[regKey][]*pendingCall
}

type regKey struct {
	to, from transport.NodeID
	tag      uint8
}

type pendingCall struct {
	t       *opTracer
	op      uint64
	claimed bool
}

func newRegistry() *registry {
	return &registry{pending: make(map[regKey][]*pendingCall)}
}

func (r *registry) push(k regKey, p *pendingCall) {
	r.mu.Lock()
	r.pending[k] = append(r.pending[k], p)
	r.mu.Unlock()
}

func (r *registry) pop(k regKey, p *pendingCall) {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.pending[k]
	for i, q := range list {
		if q == p {
			r.pending[k] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

func (r *registry) claim(k regKey) *pendingCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.pending[k] {
		if !p.claimed {
			p.claimed = true
			return p
		}
	}
	return nil
}

// tracedDHT times every call into the wrapped DHT. It offers each optional
// interface a stack may probe (Batcher, BatchWriter, SpanGetter,
// Enumerator). Where the wrapped value lacks one, the method behaves
// exactly as that value does when probed: the batch calls fan out through
// dht's own worker pool onto this decorator's single-key methods, GetSpan
// falls back to Get, and Range reports dht.ErrNotEnumerable.
type tracedDHT struct {
	inner dht.DHT
	t     *opTracer
	l     layer
}

var (
	_ dht.DHT         = (*tracedDHT)(nil)
	_ dht.Batcher     = (*tracedDHT)(nil)
	_ dht.BatchWriter = (*tracedDHT)(nil)
	_ dht.SpanGetter  = (*tracedDHT)(nil)
	_ dht.Enumerator  = (*tracedDHT)(nil)
)

// plainDHT hides every optional interface of the value it holds.
type plainDHT struct{ dht.DHT }

func (d *tracedDHT) done(tag uint8, start int64, n, hits, recs int, err error) {
	d.t.record(span{start: start, end: now(), l: d.l, tag: tag, err: err != nil,
		n: int32(n), hits: int32(hits), recs: int32(recs)})
}

func bucketLoad(v any) int {
	if b, ok := v.(core.Bucket); ok {
		return b.Load()
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (d *tracedDHT) Get(key dht.Key) (any, bool, error) {
	if !d.t.on() {
		return d.inner.Get(key)
	}
	start := now()
	v, found, err := d.inner.Get(key)
	d.done(mGet, start, 1, b2i(found), bucketLoad(v), err)
	return v, found, err
}

func (d *tracedDHT) GetSpan(key dht.Key, parent trace.SpanID) (any, bool, error) {
	if !d.t.on() {
		return dht.GetWithSpan(d.inner, key, parent)
	}
	start := now()
	v, found, err := dht.GetWithSpan(d.inner, key, parent)
	d.done(mGet, start, 1, b2i(found), bucketLoad(v), err)
	return v, found, err
}

func (d *tracedDHT) GetBatch(keys []dht.Key, maxInFlight int) []dht.BatchResult {
	b, ok := d.inner.(dht.Batcher)
	if !ok {
		return dht.GetBatch(plainDHT{d}, keys, maxInFlight)
	}
	if !d.t.on() {
		return b.GetBatch(keys, maxInFlight)
	}
	start := now()
	res := b.GetBatch(keys, maxInFlight)
	hits, recs := 0, 0
	var err error
	for _, r := range res {
		if r.Found {
			hits++
			recs += bucketLoad(r.Value)
		}
		if r.Err != nil {
			err = r.Err
		}
	}
	d.done(mGetBatch, start, len(keys), hits, recs, err)
	return res
}

func (d *tracedDHT) Put(key dht.Key, value any) error {
	if !d.t.on() {
		return d.inner.Put(key, value)
	}
	start := now()
	err := d.inner.Put(key, value)
	d.done(mPut, start, 1, 0, 0, err)
	return err
}

func (d *tracedDHT) PutBatch(ops []dht.PutOp, maxInFlight int) []error {
	b, ok := d.inner.(dht.BatchWriter)
	if !ok {
		return dht.PutBatch(plainDHT{d}, ops, maxInFlight)
	}
	if !d.t.on() {
		return b.PutBatch(ops, maxInFlight)
	}
	start := now()
	errs := b.PutBatch(ops, maxInFlight)
	d.done(mPutBatch, start, len(ops), 0, 0, firstErr(errs))
	return errs
}

func (d *tracedDHT) ApplyBatch(ops []dht.ApplyOp, maxInFlight int) []error {
	b, ok := d.inner.(dht.BatchWriter)
	if !ok {
		return dht.ApplyBatch(plainDHT{d}, ops, maxInFlight)
	}
	if !d.t.on() {
		return b.ApplyBatch(ops, maxInFlight)
	}
	start := now()
	errs := b.ApplyBatch(ops, maxInFlight)
	d.done(mApplyBatch, start, len(ops), 0, 0, firstErr(errs))
	return errs
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *tracedDHT) Remove(key dht.Key) error {
	if !d.t.on() {
		return d.inner.Remove(key)
	}
	start := now()
	err := d.inner.Remove(key)
	d.done(mRemove, start, 1, 0, 0, err)
	return err
}

func (d *tracedDHT) Apply(key dht.Key, fn dht.ApplyFunc) error {
	if !d.t.on() {
		return d.inner.Apply(key, fn)
	}
	start := now()
	err := d.inner.Apply(key, fn)
	d.done(mApply, start, 1, 0, 0, err)
	return err
}

func (d *tracedDHT) Owner(key dht.Key) (string, error) {
	if !d.t.on() {
		return d.inner.Owner(key)
	}
	start := now()
	o, err := d.inner.Owner(key)
	d.done(mOwner, start, 1, 0, 0, err)
	return o, err
}

func (d *tracedDHT) Range(fn func(key dht.Key, value any) bool) error {
	e, ok := d.inner.(dht.Enumerator)
	if !ok {
		return dht.ErrNotEnumerable
	}
	return e.Range(fn)
}

// tracedCodec times bucket encoding and decoding.
type tracedCodec struct {
	inner wire.Codec
	t     *opTracer
}

var _ wire.Codec = (*tracedCodec)(nil)

func (c *tracedCodec) Marshal(v any) ([]byte, error) {
	if !c.t.on() {
		return c.inner.Marshal(v)
	}
	start := now()
	b, err := c.inner.Marshal(v)
	c.t.record(span{start: start, end: now(), l: lCodec, tag: cMarshal, n: int32(len(b)), err: err != nil})
	return b, err
}

func (c *tracedCodec) Unmarshal(data []byte) (any, error) {
	if !c.t.on() {
		return c.inner.Unmarshal(data)
	}
	start := now()
	v, err := c.inner.Unmarshal(data)
	c.t.record(span{start: start, end: now(), l: lCodec, tag: cUnmarshal, n: int32(len(data)), err: err != nil})
	return v, err
}

// tracedTransport times the calls a client makes and wraps every handler
// registered through it. A transport with no tracer (a server node's)
// passes its own calls through untimed. It reports inline delivery exactly
// when the wrapped transport does.
type tracedTransport struct {
	inner transport.Interface
	t     *opTracer
	reg   *registry
}

var (
	_ transport.Interface    = (*tracedTransport)(nil)
	_ transport.InlineCaller = (*tracedTransport)(nil)
)

func (x *tracedTransport) Call(from, to transport.NodeID, req any) (any, error) {
	var op uint64
	if x.t != nil {
		op = x.t.cur.Load()
	}
	if op == 0 {
		return x.inner.Call(from, to, req)
	}
	k := regKey{to: to, from: from, tag: reqTag(req)}
	p := &pendingCall{t: x.t, op: op}
	x.reg.push(k, p)
	start := now()
	resp, err := x.inner.Call(from, to, req)
	end := now()
	x.reg.pop(k, p)
	x.t.recordFor(op, span{start: start, end: end, l: lTransport, tag: k.tag, err: err != nil})
	return resp, err
}

func (x *tracedTransport) Register(id transport.NodeID, h transport.Handler) error {
	return x.inner.Register(id, &tracedHandler{id: id, inner: h, reg: x.reg})
}

func (x *tracedTransport) Deregister(id transport.NodeID)         { x.inner.Deregister(id) }
func (x *tracedTransport) SetDown(id transport.NodeID, down bool) { x.inner.SetDown(id, down) }
func (x *tracedTransport) Crash(id transport.NodeID) error        { return x.inner.Crash(id) }
func (x *tracedTransport) Restart(id transport.NodeID) error      { return x.inner.Restart(id) }
func (x *tracedTransport) IsDown(id transport.NodeID) bool        { return x.inner.IsDown(id) }
func (x *tracedTransport) OneWayLatency(from, to transport.NodeID) time.Duration {
	return x.inner.OneWayLatency(from, to)
}
func (x *tracedTransport) InlineDelivery() bool { return transport.SupportsInline(x.inner) }

// tracedHandler times an owner's handling of a request a traced client
// sent, and forwards the crash and restart hooks when the wrapped handler
// has them (a missing hook and a no-op hook behave the same).
type tracedHandler struct {
	id    transport.NodeID
	inner transport.Handler
	reg   *registry
}

var (
	_ transport.Crasher   = (*tracedHandler)(nil)
	_ transport.Restarter = (*tracedHandler)(nil)
)

func (h *tracedHandler) HandleRPC(from transport.NodeID, req any) (any, error) {
	tag := reqTag(req)
	p := h.reg.claim(regKey{to: h.id, from: from, tag: tag})
	if p == nil {
		return h.inner.HandleRPC(from, req)
	}
	start := now()
	resp, err := h.inner.HandleRPC(from, req)
	p.t.recordFor(p.op, span{start: start, end: now(), l: lOwner, tag: tag, err: err != nil})
	return resp, err
}

func (h *tracedHandler) OnCrash() {
	if c, ok := h.inner.(transport.Crasher); ok {
		c.OnCrash()
	}
}

func (h *tracedHandler) OnRestart() {
	if r, ok := h.inner.(transport.Restarter); ok {
		r.OnRestart()
	}
}
