package dhttest

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"mlight/internal/dht"
	"mlight/internal/simnet"
	"mlight/internal/transport"
)

// CountingTransport wraps a transport and counts the calls it carries, by
// request type ("chord.lookupStepReq"), separately for calls that failed.
// It delivers inline exactly when the wrapped transport does, so an
// overlay above it picks the same apply protocol it would without it.
type CountingTransport struct {
	transport.Interface
	mu     sync.Mutex
	calls  map[string]int
	failed map[string]int
}

// NewCountingTransport wraps inner with all counts at zero.
func NewCountingTransport(inner transport.Interface) *CountingTransport {
	return &CountingTransport{Interface: inner, calls: map[string]int{}, failed: map[string]int{}}
}

// Call implements transport.Interface.
func (c *CountingTransport) Call(from, to transport.NodeID, req any) (any, error) {
	resp, err := c.Interface.Call(from, to, req)
	name := fmt.Sprintf("%T", req)
	c.mu.Lock()
	c.calls[name]++
	if err != nil {
		c.failed[name]++
	}
	c.mu.Unlock()
	return resp, err
}

// InlineDelivery implements transport.InlineCaller.
func (c *CountingTransport) InlineDelivery() bool { return transport.SupportsInline(c.Interface) }

// Take returns the calls and failed calls counted since the last Take, by
// request type, and restarts both counts.
func (c *CountingTransport) Take() (calls, failed map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	calls, failed = c.calls, c.failed
	c.calls, c.failed = map[string]int{}, map[string]int{}
	return calls, failed
}

// RoundTrips describes one overlay deployment for RunRoundTrips: a running
// cluster, how to dial seeds-only clients of it, and the request types the
// overlay's client sends.
type RoundTrips struct {
	// Nodes are the cluster's addresses. Every client has all of them as
	// seeds.
	Nodes []transport.NodeID
	// Dead returns a fresh address no node ever listened on.
	Dead func(t *testing.T) transport.NodeID
	// Transport returns a fresh transport for one client, owned by the
	// deployment.
	Transport func(t *testing.T) transport.Interface
	// Dial builds a client overlay with no managed nodes over tr.
	Dial func(tr transport.Interface, seeds []transport.NodeID) dht.DHT
	// SeedOrder is the overlay's entry rule: the seeds in the order a
	// lookup of key tries them.
	SeedOrder func(key dht.Key, seeds []transport.NodeID) []transport.NodeID
	// Crash fails a node abruptly, with no maintenance afterwards.
	// Stabilize runs maintenance rounds on the surviving nodes. A nil
	// Crash skips the dead-owner check.
	Crash     func(transport.NodeID) error
	Stabilize func()

	// Route is the request type of one routing step, Ping the overlay's
	// liveness probe, and Store, Retrieve, Remove and Apply the requests
	// Put, Get, Remove and an inline Apply send the key's owner. Over a
	// transport without inline delivery Apply sends dht.GetVerReq and
	// dht.CASReq instead.
	Route, Ping                    string
	Store, Retrieve, Remove, Apply string
}

// roundTripKeys is how many keys each check spreads its operations over:
// enough that every node owns some and every seed is some key's first.
const roundTripKeys = 48

// RunRoundTrips pins the round trips of each client operation:
//
//   - Pin: Put, Get, Remove and Apply each cost one routing step plus the
//     request itself (GetVer and CAS for a wire Apply), and no ping;
//   - DeadSeed: with an address that never answered among the seeds and no
//     retry layer, every operation succeeds, and one whose first seed is
//     that address costs exactly one failed routing step more;
//   - AdjacentDeadSeeds: the same with three such addresses next to each
//     other in ID order, where an operation costs one failed routing step
//     for each dead seed its lookup tries before the first live one;
//   - DeadOwner: after a key's owner crashes, and before any maintenance,
//     each operation on the key fails with an error dht.DefaultClassify
//     calls retryable; after maintenance each succeeds.
func RunRoundTrips(t *testing.T, rt RoundTrips) {
	t.Helper()
	type op struct {
		name string
		run  func(d dht.DHT, key dht.Key) error
		req  []string
	}
	ops := func(tr transport.Interface) []op {
		apply := []string{"dht.GetVerReq", "dht.CASReq"}
		if transport.SupportsInline(tr) {
			apply = []string{rt.Apply}
		}
		return []op{
			{"Put", func(d dht.DHT, k dht.Key) error { return d.Put(k, "v1") }, []string{rt.Store}},
			{"Get", func(d dht.DHT, k dht.Key) error { _, _, err := d.Get(k); return err }, []string{rt.Retrieve}},
			{"Apply", func(d dht.DHT, k dht.Key) error {
				return d.Apply(k, func(any, bool) (any, bool) { return "v2", true })
			}, apply},
			{"Remove", func(d dht.DHT, k dht.Key) error { return d.Remove(k) }, []string{rt.Remove}},
		}
	}
	dial := func(t *testing.T, seeds []transport.NodeID) (dht.DHT, *CountingTransport) {
		counter := NewCountingTransport(rt.Transport(t))
		return rt.Dial(counter, seeds), counter
	}
	key := func(i int) dht.Key { return dht.Key(fmt.Sprintf("roundtrip-%d", i)) }
	// check runs every op on k and requires one routing step plus the op's
	// requests, and failedSteps failed routing steps more.
	check := func(t *testing.T, client dht.DHT, counter *CountingTransport, k dht.Key, failedSteps int) {
		t.Helper()
		for _, o := range ops(counter) {
			if err := o.run(client, k); err != nil {
				t.Fatalf("%s(%s): %v", o.name, k, err)
			}
			wantCalls, wantFailed := map[string]int{rt.Route: 1}, map[string]int{}
			for _, r := range o.req {
				wantCalls[r]++
			}
			if failedSteps > 0 {
				wantCalls[rt.Route] += failedSteps
				wantFailed[rt.Route] = failedSteps
			}
			if calls, failed := counter.Take(); !maps.Equal(calls, wantCalls) || !maps.Equal(failed, wantFailed) {
				t.Fatalf("%s(%s) sent %v with failures %v, want %v with failures %v",
					o.name, k, calls, failed, wantCalls, wantFailed)
			}
		}
	}

	t.Run("Pin", func(t *testing.T) {
		client, counter := dial(t, rt.Nodes)
		for i := 0; i < roundTripKeys; i++ {
			check(t, client, counter, key(i), 0)
		}
	})

	deadSeeds := func(t *testing.T, dead []transport.NodeID) {
		seeds := append(slices.Clone(rt.Nodes), dead...)
		client, counter := dial(t, seeds)
		// failedSteps is how many dead seeds a lookup of k tries before
		// the first live one.
		failedSteps := func(k dht.Key) int {
			n := 0
			for _, s := range rt.SeedOrder(k, seeds) {
				if !slices.Contains(dead, s) {
					break
				}
				n++
			}
			return n
		}
		// Past the first roundTripKeys keys, only keys that start at a dead
		// seed, until one of them has tried every dead seed: however small
		// their arc, they get their share.
		viaDead, viaAll := 0, false
		for i := 0; (viaDead < roundTripKeys/2 || !viaAll) && i < 1<<16; i++ {
			f := failedSteps(key(i))
			if f == 0 && i >= roundTripKeys {
				continue
			}
			if f > 0 {
				viaDead++
			}
			viaAll = viaAll || f == len(dead)
			check(t, client, counter, key(i), f)
		}
		if !viaAll {
			t.Fatalf("no key tries all %d dead seeds first; the check exercised too little", len(dead))
		}
	}
	t.Run("DeadSeed", func(t *testing.T) { deadSeeds(t, []transport.NodeID{rt.Dead(t)}) })
	t.Run("AdjacentDeadSeeds", func(t *testing.T) { deadSeeds(t, adjacentDeadSeeds(t, rt, 3)) })

	if rt.Crash == nil {
		return
	}
	t.Run("DeadOwner", func(t *testing.T) {
		client, counter := dial(t, rt.Nodes)
		k := key(0)
		owner, err := client.Owner(k)
		if err != nil {
			t.Fatalf("Owner(%s): %v", k, err)
		}
		if err := rt.Crash(transport.NodeID(owner)); err != nil {
			t.Fatalf("crash %s: %v", owner, err)
		}
		counter.Take()
		for _, o := range ops(counter) {
			err := o.run(client, k)
			if err == nil || !dht.DefaultClassify(err) {
				t.Errorf("%s(%s) with its owner crashed = %v, want a retryable error", o.name, k, err)
			}
			if calls, _ := counter.Take(); calls[rt.Ping] != 0 {
				t.Errorf("%s(%s) sent %d pings", o.name, k, calls[rt.Ping])
			}
		}
		rt.Stabilize()
		for _, o := range ops(counter) {
			if err := o.run(client, k); err != nil {
				t.Errorf("%s(%s) after maintenance: %v", o.name, k, err)
			}
		}
		if now, err := client.Owner(k); err != nil || now == owner {
			t.Errorf("Owner(%s) after maintenance = %q, %v; want a survivor", k, now, err)
		}
	})
}

// adjacentDeadSeeds returns n dead addresses that lie between the same two
// consecutive nodes of rt.Nodes in ID order, spanning an arc shorter than
// their distance to either of those nodes. Under chord's and pastry's seed
// order alike, some keys then try all n before any live seed.
func adjacentDeadSeeds(t *testing.T, rt RoundTrips, n int) []transport.NodeID {
	t.Helper()
	id := func(a transport.NodeID) dht.ID { return dht.HashString(string(a)) }
	live := slices.Clone(rt.Nodes)
	slices.SortFunc(live, func(a, b transport.NodeID) int { return id(a).Cmp(id(b)) })
	var cands []transport.NodeID
	for draw := 0; draw < 256; draw++ {
		if c := rt.Dead(t); !slices.Contains(cands, c) {
			cands = append(cands, c)
		}
		for i, lo := range live {
			hi := live[(i+1)%len(live)]
			// arc holds the candidates clockwise after lo and before hi.
			var arc []transport.NodeID
			for _, c := range cands {
				if id(c).Sub(id(lo)).Cmp(id(hi).Sub(id(lo))) < 0 {
					arc = append(arc, c)
				}
			}
			slices.SortFunc(arc, func(a, b transport.NodeID) int { return id(a).Sub(id(lo)).Cmp(id(b).Sub(id(lo))) })
			for j := 0; j+n <= len(arc); j++ {
				first, last := id(arc[j]), id(arc[j+n-1])
				span := last.Sub(first)
				if span.Cmp(first.Sub(id(lo))) < 0 && span.Cmp(id(hi).Sub(last)) < 0 {
					return arc[j : j+n]
				}
			}
		}
	}
	t.Fatalf("no %d dead addresses close together among %d candidates", n, len(cands))
	return nil
}

// UnusedTCPAddr returns a loopback address nothing listens on: the port was
// bound and released, so connecting to it is refused.
func UnusedTCPAddr(t *testing.T) transport.NodeID {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return transport.NodeID(addr)
}

// RunClientRoundTrips runs RunRoundTrips against a 3-node cluster over
// simnet and again over loopback TCP. build boots the cluster's nodes at
// addrs on net and describes the overlay; the harness fills in Nodes, Dead
// and Transport.
func RunClientRoundTrips(t *testing.T, build func(t *testing.T, net transport.Interface, addrs []transport.NodeID) RoundTrips) {
	t.Run("simnet", func(t *testing.T) {
		net := simnet.New(simnet.Options{})
		addrs := []transport.NodeID{"node-0", "node-1", "node-2"}
		rt := build(t, net, addrs)
		dead := 0
		rt.Nodes = addrs
		rt.Dead = func(*testing.T) transport.NodeID {
			dead++
			return transport.NodeID(fmt.Sprintf("never-started-%d", dead))
		}
		rt.Transport = func(*testing.T) transport.Interface { return net }
		RunRoundTrips(t, rt)
	})
	t.Run("tcp", func(t *testing.T) {
		net := newLoopbackTCP(t)
		addrs := make([]transport.NodeID, 3)
		for i := range addrs {
			a, err := net.Reserve()
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = a
		}
		rt := build(t, net, addrs)
		rt.Nodes, rt.Dead = addrs, UnusedTCPAddr
		rt.Transport = func(t *testing.T) transport.Interface { return newLoopbackTCP(t) }
		RunRoundTrips(t, rt)
	})
}

// newLoopbackTCP returns a TCP transport closed when the test ends.
func newLoopbackTCP(t *testing.T) *transport.TCP {
	t.Helper()
	tr := transport.NewTCP(transport.TCPOptions{CallTimeout: 10 * time.Second, DialTimeout: 2 * time.Second})
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("transport close: %v", err)
		}
	})
	return tr
}

// ClosestPrecedingSeedFirst is chord's entry rule: the seeds by clockwise
// distance to key's identifier, shortest first.
func ClosestPrecedingSeedFirst(key dht.Key, seeds []transport.NodeID) []transport.NodeID {
	target := dht.HashKey(key)
	ranked := slices.Clone(seeds)
	slices.SortFunc(ranked, func(a, b transport.NodeID) int {
		return target.Sub(dht.HashString(string(a))).Cmp(target.Sub(dht.HashString(string(b))))
	})
	return ranked
}

// NumericallyClosestSeedFirst is pastry's entry rule: the seeds by circular
// distance from key's identifier, shortest first, ties to the lower
// identifier.
func NumericallyClosestSeedFirst(key dht.Key, seeds []transport.NodeID) []transport.NodeID {
	target := dht.HashKey(key)
	ranked := slices.Clone(seeds)
	slices.SortFunc(ranked, func(a, b transport.NodeID) int {
		ida, idb := dht.HashString(string(a)), dht.HashString(string(b))
		if c := dht.CircularDistance(ida, target).Cmp(dht.CircularDistance(idb, target)); c != 0 {
			return c
		}
		return ida.Cmp(idb)
	})
	return ranked
}
