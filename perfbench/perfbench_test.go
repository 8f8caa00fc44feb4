package main

import (
	"math/rand"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// logical is the paper's cost accounting of a run: DHT-lookups, records
// moved, splits and merges from the index counters, and the rounds of
// lookups the range and kNN answers report.
type logical struct {
	lookups, moved, splits, merges, rounds int64
}

// runLogical runs a fixed op sequence on a sim deployment, traced or not,
// and returns its logical costs.
func runLogical(t *testing.T, w *workload, traced bool, records, ops int) logical {
	t.Helper()
	const seed = 3
	all := corpus()
	p := &phaseResult{}
	var preload []spatial.Record
	if !w.ingest {
		preload = all[:records]
	}
	dep, err := p.setUp(w, seed, traced, preload)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dep.close(); err != nil {
			t.Error(err)
		}
	}()
	st := &phaseStats{timed: true}
	st.enter(0)
	var c *client
	if w.ingest {
		data := append([]spatial.Record(nil), all[:records]...)
		rand.New(rand.NewSource(seed)).Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
		c = newClients(w, dep, newModelOf(data, false), all, seed, 0)[0]
		c.ingestPass(records, st)
	} else {
		c = newClients(w, dep, newModelOf(preload, true), all, seed, records)[0]
		for i := 0; i < ops; i++ {
			c.do(c.next(), st)
		}
	}
	if _, failed, _, _ := st.total(); failed > 0 {
		t.Fatalf("%d ops failed; first: %v", failed, st.firstErr)
	}
	if traced && dep.tracers[0].agg.ops == [numOps]int64{} {
		t.Fatal("traced run recorded no operations")
	}
	s := c.ix.Stats()
	return logical{s.DHTLookups, s.RecordsMoved, s.Splits, s.Merges, st.rounds[opRange] + st.rounds[opKNN]}
}

// TestTracedCountsMatchUntraced checks that the decorators leave the program
// unchanged: the traced stack spends exactly the DHT-lookups, rounds,
// record moves and splits the untraced public-constructor stack spends.
func TestTracedCountsMatchUntraced(t *testing.T) {
	for _, name := range []string{"ingest-sim", "query-sim"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			plain := runLogical(t, &w, false, 20000, 300)
			traced := runLogical(t, &w, true, 20000, 300)
			if plain != traced {
				t.Fatalf("logical costs differ:\nuntraced %+v\ntraced   %+v", plain, traced)
			}
			if plain.lookups == 0 || plain.rounds == 0 || plain.moved == 0 {
				t.Fatalf("workload did no work: %+v", plain)
			}
		})
	}
}

type crashHandler struct{ crashed, restarted bool }

func (h *crashHandler) HandleRPC(transport.NodeID, any) (any, error) { return nil, nil }
func (h *crashHandler) OnCrash()                                     { h.crashed = true }
func (h *crashHandler) OnRestart()                                   { h.restarted = true }

// TestDecoratorsKeepCapabilities checks that each decorator offers what the
// wrapped value offers and behaves like it where the value lacks a
// capability.
func TestDecoratorsKeepCapabilities(t *testing.T) {
	tr := &opTracer{}
	byteD := wire.NewByteDHT(dht.MustNewLocal(4), wire.BucketCodec{})
	var d dht.DHT = &tracedDHT{inner: byteD, t: tr, l: lWire}
	if _, ok := d.(dht.Batcher); !ok {
		t.Error("decorator over ByteDHT hides Batcher")
	}
	if _, ok := d.(dht.BatchWriter); !ok {
		t.Error("decorator over ByteDHT hides BatchWriter")
	}
	if _, ok := d.(dht.SpanGetter); !ok {
		t.Error("decorator over ByteDHT hides SpanGetter")
	}

	// Over a plain DHT the batch path fans out onto the decorator's own
	// Get, so every probe is traced, and Range reports what the value does.
	plain := &tracedDHT{inner: plainDHT{dht.MustNewLocal(4)}, t: tr, l: lChord}
	tr.begin(opRange)
	plain.GetBatch([]dht.Key{"a", "b", "c"}, 2)
	if n := len(tr.spans); n != 3 {
		t.Errorf("GetBatch over a non-Batcher traced %d Gets, want 3", n)
	}
	tr.finish(0, 1, 0, 0)
	if err := plain.Range(func(dht.Key, any) bool { return true }); err != dht.ErrNotEnumerable {
		t.Errorf("Range over a non-Enumerator = %v, want ErrNotEnumerable", err)
	}

	net := simnet.New(simnet.Options{})
	x := &tracedTransport{inner: net, reg: newRegistry()}
	if !transport.SupportsInline(x) {
		t.Error("transport wrapper over simnet hides inline delivery")
	}
	tcp := transport.NewTCP(transport.TCPOptions{})
	defer tcp.Close()
	if transport.SupportsInline(&tracedTransport{inner: tcp, reg: newRegistry()}) {
		t.Error("transport wrapper over TCP claims inline delivery")
	}
	h := &crashHandler{}
	if err := x.Register("n", h); err != nil {
		t.Fatal(err)
	}
	if err := x.Crash("n"); err != nil {
		t.Fatal(err)
	}
	if err := x.Restart("n"); err != nil {
		t.Fatal(err)
	}
	if !h.crashed || !h.restarted {
		t.Errorf("handler hooks not forwarded: crashed=%v restarted=%v", h.crashed, h.restarted)
	}
}
