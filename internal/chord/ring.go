package chord

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"mlight/internal/dht"
	"mlight/internal/metrics"
	"mlight/internal/transport"
)

// clientAddr is the network source address used for client-side (iterative)
// lookups issued by the Ring itself.
const clientAddr transport.NodeID = "chord-client"

// ErrLookupFailed is returned when an iterative lookup cannot complete,
// e.g. because routing state is stale after heavy churn. It is marked
// retryable: stale routing heals after stabilization, so a retry layer may
// usefully try again.
var ErrLookupFailed = dht.Retryable(errors.New("chord: lookup failed"))

// Config tunes a Ring.
type Config struct {
	// MaxHops bounds one iterative lookup; 0 means a generous default.
	MaxHops int
	// Seed drives entry-point selection for lookups.
	Seed int64
	// Replication is the number of copies of each key (1 = primary only).
	// With r > 1 the ring tolerates up to r-1 simultaneous crashes after a
	// couple of stabilization rounds; see replication.go. At most
	// SuccessorListLen+1.
	Replication int
	// Retry governs the replication RPCs (replica pushes and drops), which
	// are issued ring-internally rather than through a dht.Resilient
	// wrapper. Nil selects a default of 3 attempts with no backoff sleep —
	// the simulated network fails synchronously, so waiting buys nothing;
	// real deployments should supply a policy with a real Sleep.
	Retry *dht.RetryPolicy
	// Seeds names remote entry points for lookups when the ring manages no
	// local node (a pure client dialing a daemon cluster) or is joining an
	// overlay hosted by other processes (a daemon booting with peers).
	// Over TCP a seed is a dialable address; its ring identifier is the
	// hash of that address, exactly as the node at the address computes it.
	Seeds []transport.NodeID
}

// Ring manages a set of Chord nodes on one transport and exposes
// the whole overlay as a dht.DHT. It is the management plane a deployer
// would run: join, graceful leave, crash, and stabilization rounds.
type Ring struct {
	net         transport.Interface
	maxHops     int
	replication int

	mu    sync.Mutex
	nodes map[transport.NodeID]*Node
	order []transport.NodeID // sorted addresses for deterministic iteration
	// crashed retains the node objects of crashed peers (their volatile
	// state already wiped by the transport's Crasher hook) so RestartNode
	// can revive them under the same identity.
	crashed        map[transport.NodeID]*Node
	seeds          []ref
	rng            *rand.Rand
	retrier        *dht.Retrier
	lastReplicaErr error
	lastMaintErr   error

	// Lookups counts completed iterative lookups; Hops counts every
	// lookup-step RPC issued, so Hops/Lookups is the mean route length.
	Lookups metrics.Counter
	Hops    metrics.Counter
	// ReplicationErrors counts replica pushes and drops that still failed
	// after the retry budget — replicas that will stay missing until the
	// next stabilization round repairs them.
	ReplicationErrors metrics.Counter
	// MaintenanceErrors counts failed maintenance RPCs — the stabilize
	// notify that keeps predecessor pointers fresh. A failed notify is not
	// fatal (the next round retries it), but a rising counter means churn
	// or loss is outpacing repair, the signal the old fire-and-forget
	// `_, _ = net.Call(...)` discarded.
	MaintenanceErrors metrics.Counter
}

var (
	_ dht.DHT        = (*Ring)(nil)
	_ dht.Enumerator = (*Ring)(nil)
)

// NewRing creates an empty ring on net.
func NewRing(net transport.Interface, cfg Config) *Ring {
	maxHops := cfg.MaxHops
	if maxHops <= 0 {
		maxHops = 512
	}
	replication := cfg.Replication
	if replication < 1 {
		replication = 1
	}
	if replication > SuccessorListLen+1 {
		replication = SuccessorListLen + 1
	}
	policy := dht.RetryPolicy{MaxAttempts: 3, Seed: cfg.Seed, Sleep: dht.NoSleep}
	if cfg.Retry != nil {
		policy = *cfg.Retry
	}
	seeds := make([]ref, 0, len(cfg.Seeds))
	for _, s := range cfg.Seeds {
		seeds = append(seeds, ref{Addr: s, ID: dht.HashString(string(s))})
	}
	return &Ring{
		net:         net,
		seeds:       seeds,
		maxHops:     maxHops,
		replication: replication,
		nodes:       make(map[transport.NodeID]*Node),
		crashed:     make(map[transport.NodeID]*Node),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		retrier:     dht.NewRetrier(policy, nil),
	}
}

// ReplicationRetrier exposes the retry executor guarding replication RPCs,
// so tests and experiments can inspect its counters and breaker states.
func (r *Ring) ReplicationRetrier() *dht.Retrier { return r.retrier }

// LastReplicationError returns the most recent replication push or drop
// that failed after exhausting its retry budget, or nil. It surfaces
// persistent replica loss that the periodic repair has not yet healed.
func (r *Ring) LastReplicationError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastReplicaErr
}

// LastMaintenanceError returns the most recent failed maintenance RPC, or
// nil. Pair with MaintenanceErrors to see both rate and cause.
func (r *Ring) LastMaintenanceError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastMaintErr
}

// noteMaintenanceError records one failed maintenance RPC.
func (r *Ring) noteMaintenanceError(err error) {
	r.MaintenanceErrors.Inc()
	r.mu.Lock()
	r.lastMaintErr = err
	r.mu.Unlock()
}

// AddNode creates a node at addr and joins it to the ring. The first node
// forms a singleton ring. Joining eagerly links predecessor/successor
// pointers and claims the keys the new node now owns, so the ring is
// immediately consistent; finger tables are refreshed lazily by Stabilize.
func (r *Ring) AddNode(addr transport.NodeID) (*Node, error) {
	r.mu.Lock()
	if _, dup := r.nodes[addr]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("chord: node %q already in ring", addr)
	}
	r.mu.Unlock()

	n, err := newNode(r.net, addr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	// A ring with remote seeds is never "empty": its first local node joins
	// the overlay the seeds belong to instead of forming a singleton.
	empty := len(r.nodes) == 0 && len(r.seeds) == 0
	r.mu.Unlock()

	if empty {
		n.mu.Lock()
		n.succs = []ref{n.self()}
		n.pred = n.self()
		n.mu.Unlock()
	} else if err := r.join(n); err != nil {
		r.net.Deregister(addr)
		return nil, err
	}

	r.mu.Lock()
	r.nodes[addr] = n
	r.order = append(r.order, addr)
	sort.Slice(r.order, func(i, j int) bool { return r.order[i] < r.order[j] })
	r.mu.Unlock()

	r.fixFingers(n)
	return n, nil
}

// join wires a new node into an existing ring.
func (r *Ring) join(n *Node) error {
	succ, err := r.findSuccessor(n.id)
	if err != nil {
		return fmt.Errorf("chord: join %q: %w", n.addr, err)
	}
	oldPredAny, err := r.net.Call(clientAddr, succ.Addr, getPredReq{})
	if err != nil {
		return fmt.Errorf("chord: join %q: read predecessor: %w", n.addr, err)
	}
	oldPred, _ := oldPredAny.(ref)

	succsAny, err := r.net.Call(clientAddr, succ.Addr, getSuccsReq{})
	if err != nil {
		return fmt.Errorf("chord: join %q: read successors: %w", n.addr, err)
	}
	succList, _ := succsAny.([]ref)

	n.mu.Lock()
	n.pred = oldPred
	n.succs = truncateSuccs(append([]ref{succ}, succList...))
	n.mu.Unlock()

	// Take over the keys in (oldPred, n].
	claimAny, err := r.net.Call(clientAddr, succ.Addr, claimReq{Joiner: n.self()})
	if err != nil {
		return fmt.Errorf("chord: join %q: claim keys: %w", n.addr, err)
	}
	if claim, ok := claimAny.(claimResp); ok && len(claim.Entries) > 0 {
		n.mu.Lock()
		err := n.absorbLocked(claim.Entries, true)
		n.mu.Unlock()
		if err != nil {
			return fmt.Errorf("chord: join %q: absorb claimed keys: %w", n.addr, err)
		}
	}

	// Eagerly link neighbours so lookups are correct before the next
	// stabilization round.
	if _, err := r.net.Call(clientAddr, succ.Addr, setPredReq{Pred: n.self()}); err != nil {
		return fmt.Errorf("chord: join %q: link successor: %w", n.addr, err)
	}
	if !oldPred.isZero() && oldPred.Addr != succ.Addr {
		if _, err := r.net.Call(clientAddr, oldPred.Addr, setSuccReq{Succ: n.self()}); err != nil {
			return fmt.Errorf("chord: join %q: link predecessor: %w", n.addr, err)
		}
	} else if oldPred.Addr == succ.Addr {
		// Two-node ring: the successor is also the predecessor.
		if _, err := r.net.Call(clientAddr, succ.Addr, setSuccReq{Succ: n.self()}); err != nil {
			return fmt.Errorf("chord: join %q: link two-node ring: %w", n.addr, err)
		}
	}
	return nil
}

// RemoveNode gracefully departs a node: its keys move to its successor and
// its neighbours are re-linked.
func (r *Ring) RemoveNode(addr transport.NodeID) error {
	r.mu.Lock()
	n, ok := r.nodes[addr]
	if ok {
		delete(r.nodes, addr)
		r.order = removeAddr(r.order, addr)
	}
	last := len(r.nodes) == 0
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("chord: node %q not in ring", addr)
	}
	defer r.net.Deregister(addr)

	n.mu.Lock()
	var succ, pred ref
	if len(n.succs) > 0 {
		succ = n.succs[0]
	}
	pred = n.pred
	entries := make(map[dht.Key]any, len(n.store))
	for k, v := range n.store {
		entries[k] = v
	}
	n.store = make(map[dht.Key]any)
	n.mu.Unlock()

	if succ.isZero() || succ.Addr == addr {
		// No successor to leave to. A true singleton — the process's last
		// local node with no remote successor — departs silently; a daemon's
		// only node usually has remote successors and falls through to the
		// handoff below instead.
		if last {
			return nil
		}
		return fmt.Errorf("chord: node %q has no successor to leave to", addr)
	}
	if len(entries) > 0 {
		if _, err := r.net.Call(addr, succ.Addr, handoffReq{Entries: entries}); err != nil {
			return fmt.Errorf("chord: leave %q: handoff: %w", addr, err)
		}
	}
	if !pred.isZero() && pred.Addr != addr {
		if _, err := r.net.Call(addr, pred.Addr, setSuccReq{Succ: succ}); err != nil {
			return fmt.Errorf("chord: leave %q: relink predecessor: %w", addr, err)
		}
		if _, err := r.net.Call(addr, succ.Addr, setPredReq{Pred: pred}); err != nil {
			return fmt.Errorf("chord: leave %q: relink successor: %w", addr, err)
		}
	}
	return nil
}

// CrashNode fails a node abruptly: it stops answering and its volatile
// state — stored keys, replicas, routing tables — is destroyed
// (transport Crash → Node.OnCrash), not merely hidden behind a partition.
// Stabilization repairs the ring around it; RestartNode can later revive
// the same identity with empty buckets.
func (r *Ring) CrashNode(addr transport.NodeID) error {
	r.mu.Lock()
	n, ok := r.nodes[addr]
	if ok {
		delete(r.nodes, addr)
		r.order = removeAddr(r.order, addr)
		r.crashed[addr] = n
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("chord: node %q not in ring", addr)
	}
	return r.net.Crash(addr)
}

// RestartNode revives a crashed node under its old identity: the network
// registration comes back up, the node rejoins the ring (re-fetching the
// keys it owns from its successor via the claim protocol), and the
// replication retrier forgets the peer's past failures so its circuit
// breaker does not shed traffic to a now-healthy node.
func (r *Ring) RestartNode(addr transport.NodeID) (*Node, error) {
	r.mu.Lock()
	n, ok := r.crashed[addr]
	if ok {
		delete(r.crashed, addr)
	}
	empty := len(r.nodes) == 0 && len(r.seeds) == 0
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("chord: node %q is not crashed", addr)
	}
	if err := r.net.Restart(addr); err != nil {
		r.mu.Lock()
		r.crashed[addr] = n
		r.mu.Unlock()
		return nil, err
	}
	if empty {
		n.mu.Lock()
		n.succs = []ref{n.self()}
		n.pred = n.self()
		n.mu.Unlock()
	} else if err := r.join(n); err != nil {
		// Rejoin failed (e.g. every entry point unreachable): put the node
		// back down so a later restart attempt starts from a clean slate.
		r.net.SetDown(addr, true)
		r.mu.Lock()
		r.crashed[addr] = n
		r.mu.Unlock()
		return nil, err
	}
	r.mu.Lock()
	r.nodes[addr] = n
	r.order = append(r.order, addr)
	sort.Slice(r.order, func(i, j int) bool { return r.order[i] < r.order[j] })
	r.mu.Unlock()
	r.fixFingers(n)
	r.retrier.ResetOwner(string(addr))
	return n, nil
}

// CrashedNodes returns the addresses of crashed, restartable nodes in
// sorted order — the churn scheduler's restart candidates.
func (r *Ring) CrashedNodes() []transport.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]transport.NodeID, 0, len(r.crashed))
	for addr := range r.crashed {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func removeAddr(order []transport.NodeID, addr transport.NodeID) []transport.NodeID {
	out := order[:0]
	for _, a := range order {
		if a != addr {
			out = append(out, a)
		}
	}
	return out
}

func truncateSuccs(s []ref) []ref {
	if len(s) > SuccessorListLen {
		s = s[:SuccessorListLen]
	}
	return s
}

// Nodes returns the managed (live) node addresses in sorted order.
func (r *Ring) Nodes() []transport.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]transport.NodeID(nil), r.order...)
}

// NumNodes returns the number of live managed nodes.
func (r *Ring) NumNodes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.nodes)
}

// NodeAt returns the managed node at addr, for application layers that
// need local-store access on a specific peer.
func (r *Ring) NodeAt(addr transport.NodeID) (*Node, bool) {
	return r.node(addr)
}

// node returns the managed node at addr.
func (r *Ring) node(addr transport.NodeID) (*Node, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[addr]
	return n, ok
}

// pickEntry selects a live node as the lookup entry point.
func (r *Ring) pickEntry() (*Node, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) == 0 {
		return nil, dht.ErrNoPeers
	}
	addr := r.order[r.rng.Intn(len(r.order))]
	return r.nodes[addr], nil
}

// seedOrder returns the seeds in the order a lookup of target that starts
// at a seed tries them: closest preceding target first. That seed's
// successor is usually the owner, so the route is one hop, and a dead seed
// costs one attempt.
func (r *Ring) seedOrder(target dht.ID) []ref {
	ranked := slices.Clone(r.seeds)
	slices.SortFunc(ranked, func(a, b ref) int { return target.Sub(a.ID).Cmp(target.Sub(b.ID)) })
	return ranked
}

// findSuccessor resolves the node responsible for target with an iterative
// lookup, retrying from fresh entry points when stale routing state points
// at departed peers. A ring that hosts live managed nodes starts each
// attempt at a random one. Otherwise the ring is a client or a booting
// daemon whose overlay lives in other processes, and its attempts go
// through the seeds in seedOrder, every seed at least once. It does not
// check that the answer is alive: the request the caller sends next fails
// with the transport's retryable unreachable error if it is not.
func (r *Ring) findSuccessor(target dht.ID) (ref, error) {
	const retries = 3
	var seeds []ref
	var lastErr error
	for attempt := 0; attempt < max(retries, len(seeds)); attempt++ {
		var entry ref
		if n, err := r.pickEntry(); err == nil {
			entry = n.self()
		} else {
			if seeds == nil {
				seeds = r.seedOrder(target)
			}
			if len(seeds) == 0 {
				return ref{}, dht.ErrNoPeers
			}
			entry = seeds[attempt%len(seeds)]
		}
		found, err := r.trace(entry, target)
		if err == nil {
			r.Lookups.Inc()
			return found, nil
		}
		lastErr = err
	}
	return ref{}, fmt.Errorf("%w: %v", ErrLookupFailed, lastErr)
}

// trace performs one iterative route from cur towards target and returns
// the node the route ends at, alive or not.
func (r *Ring) trace(cur ref, target dht.ID) (ref, error) {
	prev := ref{}
	for hop := 0; hop < r.maxHops; hop++ {
		respAny, err := r.net.Call(clientAddr, cur.Addr, lookupStepReq{Target: target})
		r.Hops.Inc()
		if err != nil {
			return ref{}, fmt.Errorf("chord: step via %q: %w", cur.Addr, err)
		}
		resp, ok := respAny.(lookupStepResp)
		if !ok {
			return ref{}, fmt.Errorf("chord: step via %q: bad response %T", cur.Addr, respAny)
		}
		if resp.Done {
			return resp.Next, nil
		}
		if resp.Next.Addr == cur.Addr || resp.Next.Addr == prev.Addr {
			// No progress; the ring is inconsistent here.
			return ref{}, fmt.Errorf("chord: lookup stalled at %q", cur.Addr)
		}
		prev, cur = cur, resp.Next
	}
	return ref{}, fmt.Errorf("chord: exceeded %d hops", r.maxHops)
}

// ping checks that the node at to answers.
func (r *Ring) ping(to ref) error {
	if _, err := r.net.Call(clientAddr, to.Addr, pingReq{}); err != nil {
		return fmt.Errorf("chord: %q dead: %w", to.Addr, err)
	}
	return nil
}

// Stabilize runs the given number of stabilization rounds over all nodes:
// each round performs Chord's stabilize+notify on every node and refreshes
// every finger table. Two rounds after a churn event are enough to restore
// routing in the simulations used here.
func (r *Ring) Stabilize(rounds int) {
	for i := 0; i < rounds; i++ {
		for _, addr := range r.Nodes() {
			n, ok := r.node(addr)
			if !ok {
				continue
			}
			r.stabilizeNode(n)
		}
		for _, addr := range r.Nodes() {
			if n, ok := r.node(addr); ok {
				r.fixFingers(n)
			}
		}
		// Replica leases expire only after every node has re-pushed its
		// primaries this round, so current targets are always refreshed
		// before their lease is checked. Expired copies are offered to the
		// key's current owner rather than destroyed — see
		// relocateStaleReplicas.
		if r.replication > 1 {
			for _, addr := range r.Nodes() {
				if n, ok := r.node(addr); ok {
					r.relocateStaleReplicas(n)
				}
			}
		}
	}
}

// stabilizeNode is Chord's periodic stabilize on one node.
func (r *Ring) stabilizeNode(n *Node) {
	n.mu.Lock()
	succs := append([]ref(nil), n.succs...)
	n.mu.Unlock()

	// Find the first live successor.
	var succ ref
	for _, s := range succs {
		if s.Addr == n.addr {
			succ = s
			break
		}
		if _, err := r.net.Call(n.addr, s.Addr, pingReq{}); err == nil {
			succ = s
			break
		}
	}
	if succ.isZero() {
		// All successors dead; fall back to any live managed node.
		entry, err := r.pickEntry()
		if err != nil || entry.addr == n.addr {
			succ = n.self()
		} else {
			succ = entry.self()
		}
	}

	if succ.Addr != n.addr {
		if predAny, err := r.net.Call(n.addr, succ.Addr, getPredReq{}); err == nil {
			if x, ok := predAny.(ref); ok && !x.isZero() && x.Addr != n.addr &&
				x.ID.BetweenOpen(n.id, succ.ID) {
				if _, err := r.net.Call(n.addr, x.Addr, pingReq{}); err == nil {
					succ = x
				}
			}
		}
	}

	// Adopt the successor and rebuild the successor list through it,
	// verifying liveness so dead entries do not propagate between lists.
	newSuccs := []ref{succ}
	if succ.Addr != n.addr {
		if listAny, err := r.net.Call(n.addr, succ.Addr, getSuccsReq{}); err == nil {
			if list, ok := listAny.([]ref); ok {
				for _, s := range list {
					if s.Addr == n.addr || s.isZero() {
						continue
					}
					if _, err := r.net.Call(n.addr, s.Addr, pingReq{}); err != nil {
						continue
					}
					newSuccs = append(newSuccs, s)
				}
			}
		}
	}
	n.mu.Lock()
	n.succs = truncateSuccs(newSuccs)
	// Clear a dead predecessor so notify can replace it.
	pred := n.pred
	n.mu.Unlock()
	if !pred.isZero() && pred.Addr != n.addr {
		if _, err := r.net.Call(n.addr, pred.Addr, pingReq{}); err != nil {
			n.mu.Lock()
			n.pred = ref{}
			n.mu.Unlock()
		}
	}
	if succ.Addr != n.addr {
		if _, err := r.net.Call(n.addr, succ.Addr, notifyReq{Candidate: n.self()}); err != nil {
			r.noteMaintenanceError(fmt.Errorf("chord: notify %q from %q: %w", succ.Addr, n.addr, err))
		}
	}
	// Replication repair: promote replica entries this node now owns, then
	// refresh this node's copies on its current successors.
	n.mu.Lock()
	perr := n.promoteOwnedReplicasLocked()
	n.mu.Unlock()
	if perr != nil {
		r.noteMaintenanceError(perr)
	}
	r.reReplicate(n)
}

// fixFingers rebuilds every finger of n by resolving n.id + 2^i. A finger
// whose rebuild fails (routes through a dead peer) is cleared rather than
// kept stale, so lookups degrade to correct successor-walking until the
// next round repairs it.
func (r *Ring) fixFingers(n *Node) {
	for i := 0; i < dht.IDBits; i++ {
		target := n.id.AddPowerOfTwo(i)
		found, err := r.trace(n.self(), target)
		if err == nil {
			err = r.ping(found)
		}
		n.mu.Lock()
		if err != nil {
			n.fingers[i] = ref{}
		} else {
			n.fingers[i] = found
		}
		n.mu.Unlock()
	}
}

// Put implements dht.DHT.
func (r *Ring) Put(key dht.Key, value any) error {
	owner, err := r.findSuccessor(dht.HashKey(key))
	if err != nil {
		return err
	}
	if _, err := r.net.Call(clientAddr, owner.Addr, storeReq{Key: key, Value: value}); err != nil {
		return err
	}
	r.replicate(owner, key, value)
	return nil
}

// Get implements dht.DHT.
func (r *Ring) Get(key dht.Key) (any, bool, error) {
	owner, err := r.findSuccessor(dht.HashKey(key))
	if err != nil {
		return nil, false, err
	}
	respAny, err := r.net.Call(clientAddr, owner.Addr, retrieveReq{Key: key})
	if err != nil {
		return nil, false, err
	}
	resp, ok := respAny.(retrieveResp)
	if !ok {
		return nil, false, fmt.Errorf("chord: bad retrieve response %T", respAny)
	}
	return resp.Value, resp.Found, nil
}

// Remove implements dht.DHT.
func (r *Ring) Remove(key dht.Key) error {
	owner, err := r.findSuccessor(dht.HashKey(key))
	if err != nil {
		return err
	}
	if _, err := r.net.Call(clientAddr, owner.Addr, removeReq{Key: key}); err != nil {
		return err
	}
	r.dropReplicas(owner, key)
	return nil
}

// Apply implements dht.DHT: the transform executes on the owning peer, as
// an installed application handler would. The post-apply value is pushed to
// the replicas.
func (r *Ring) Apply(key dht.Key, fn dht.ApplyFunc) error {
	owner, err := r.findSuccessor(dht.HashKey(key))
	if err != nil {
		return err
	}
	if !transport.SupportsInline(r.net) {
		// The transform cannot cross a real socket: run it client-side
		// under the wire-safe versioned CAS protocol instead.
		value, keep, err := dht.RemoteApply(func(req any) (any, error) {
			return r.net.Call(clientAddr, owner.Addr, req)
		}, key, fn)
		if err != nil {
			return err
		}
		if r.replication > 1 {
			if keep {
				r.replicate(owner, key, value)
			} else {
				r.dropReplicas(owner, key)
			}
		}
		return nil
	}
	respAny, err := r.net.Call(clientAddr, owner.Addr, applyReq{Key: key, Fn: fn})
	if err != nil {
		return err
	}
	if resp, ok := respAny.(applyResp); ok && r.replication > 1 {
		if resp.Keep {
			r.replicate(owner, key, resp.Value)
		} else {
			r.dropReplicas(owner, key)
		}
	}
	return nil
}

// Owner implements dht.DHT.
func (r *Ring) Owner(key dht.Key) (string, error) {
	owner, err := r.findSuccessor(dht.HashKey(key))
	if err != nil {
		return "", err
	}
	// No request follows the route to prove the owner alive, so ask it.
	if err := r.ping(owner); err != nil {
		return "", err
	}
	return string(owner.Addr), nil
}

// Range implements dht.Enumerator by walking every managed node's store.
func (r *Ring) Range(fn func(key dht.Key, value any) bool) error {
	for _, addr := range r.Nodes() {
		n, ok := r.node(addr)
		if !ok {
			continue
		}
		for k, v := range n.storeSnapshot() {
			if !fn(k, v) {
				return nil
			}
		}
	}
	return nil
}

// InstallAppHandler installs an application handler on every managed node
// (and on nodes added later callers must install again). The factory
// receives each node so handlers can read local state.
func (r *Ring) InstallAppHandler(factory func(n *Node) transport.Handler) {
	for _, addr := range r.Nodes() {
		if n, ok := r.node(addr); ok {
			n.SetAppHandler(factory(n))
		}
	}
}

// LookupFrom resolves the owner of key with an iterative lookup starting at
// the given node, returning the owner's address and the number of
// lookup-step RPCs spent — the building block for peer-side forwarding.
func (r *Ring) LookupFrom(addr transport.NodeID, key dht.Key) (transport.NodeID, int, error) {
	n, ok := r.node(addr)
	if !ok {
		return "", 0, fmt.Errorf("chord: node %q not in ring", addr)
	}
	before := r.Hops.Load()
	found, err := r.trace(n.self(), dht.HashKey(key))
	hops := int(r.Hops.Load() - before)
	if err != nil {
		return "", hops, err
	}
	return found.Addr, hops, nil
}

// MeanRouteLength returns the average hops per completed lookup so far.
func (r *Ring) MeanRouteLength() float64 {
	lookups := r.Lookups.Load()
	if lookups == 0 {
		return 0
	}
	return float64(r.Hops.Load()) / float64(lookups)
}

// AutoStabilizer runs Stabilize on a fixed cadence in a managed background
// goroutine. It exists for long-lived demos; simulations and tests should
// call Stabilize explicitly for determinism.
type AutoStabilizer struct {
	stop chan struct{}
	done chan struct{}
}

// StartAutoStabilize launches the background stabilizer. Call Shutdown to
// stop it and wait for exit.
func (r *Ring) StartAutoStabilize(interval time.Duration) *AutoStabilizer {
	a := &AutoStabilizer{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				r.Stabilize(1)
			case <-a.stop:
				return
			}
		}
	}()
	return a
}

// Shutdown stops the stabilizer and waits for its goroutine to exit.
func (a *AutoStabilizer) Shutdown() {
	close(a.stop)
	<-a.done
}
