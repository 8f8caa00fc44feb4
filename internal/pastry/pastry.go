// Package pastry implements a Pastry-style prefix-routing overlay (Rowstron
// & Druschel, Middleware 2001) in the maintenance style of Bamboo (Rhea et
// al., USENIX 2004) — the DHT the m-LIGHT paper actually deployed on. It is
// the second pluggable substrate beneath the index, alongside
// internal/chord.
//
// Nodes keep a leaf set (the numerically nearest peers on both sides of the
// 160-bit ring) and a routing table indexed by shared hex-digit prefix
// length. A key is owned by the node whose identifier is numerically
// closest on the ring (ties to the smaller identifier). Routing is greedy:
// each hop forwards to its best-known strictly closer peer, which with a
// populated routing table takes O(log₁₆ n) hops.
//
// Following Bamboo's design point, repair is periodic rather than reactive:
// the Overlay's Stabilize rounds re-probe neighbours, merge leaf sets, and
// rebuild routing tables, which is what recovers the overlay after churn.
package pastry

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"mlight/internal/dht"
	"mlight/internal/metrics"
	"mlight/internal/transport"
)

const (
	// digitBits is the routing digit width: base-16 digits as in Pastry's
	// default configuration.
	digitBits = 4
	numCols   = 1 << digitBits
	// leafHalf is the number of leaf-set entries kept on each side.
	leafHalf = 4
)

var numRows = dht.NumDigits(digitBits)

// clientAddr is the source address for overlay-initiated RPCs.
const clientAddr transport.NodeID = "pastry-client"

// ErrLookupFailed is returned when greedy routing cannot complete. It is
// marked retryable: stale leaf sets heal after stabilization, so a retry
// layer may usefully try again.
var ErrLookupFailed = dht.Retryable(errors.New("pastry: lookup failed"))

// ref names a remote node.
type ref struct {
	Addr transport.NodeID
	ID   dht.ID
}

func (r ref) isZero() bool { return r.Addr == "" }

// closerTo reports whether a is strictly closer to target than b, with ties
// broken towards the smaller identifier. This single comparator defines key
// ownership for the whole overlay.
func closerTo(target, a, b dht.ID) bool {
	da := dht.CircularDistance(a, target)
	db := dht.CircularDistance(b, target)
	switch da.Cmp(db) {
	case -1:
		return true
	case 1:
		return false
	default:
		return a.Cmp(b) < 0
	}
}

// Node is one Pastry peer.
type Node struct {
	addr transport.NodeID
	id   dht.ID
	net  transport.Interface

	mu     sync.Mutex
	leaves map[transport.NodeID]ref
	table  [][numCols]ref // numRows rows
	store  map[dht.Key]any
	// replicas holds leaf-set copies of neighbours' keys when the overlay
	// runs with Replication > 1; see replication.go.
	replicas map[dht.Key]any
	// replicaSeen records the local repair round at which each replica was
	// last refreshed by its owner; repRound counts completed repair rounds.
	// Together they implement the replica lease: a copy whose owner stops
	// refreshing it (ownership moved — a join, or a restart reclaiming the
	// keyspace) expires instead of lingering stale. See expireStaleReplicas.
	replicaSeen map[dht.Key]uint64
	repRound    uint64
	// vers tracks per-key mutation versions for the wire-safe remote apply
	// protocol (see dht.VersionedStore).
	vers dht.VersionedStore
}

// rpc request/response types.
type (
	pingReq     struct{}
	nextHopReq  struct{ Target dht.ID }
	nextHopResp struct {
		Done bool
		Next ref
	}
	getPeersReq  struct{}
	getPeersResp struct{ Peers []ref }
	announceReq  struct{ Peer ref }
	retireReq    struct{ Peer ref }
	claimReq     struct{ Joiner ref }
	claimResp    struct{ Entries map[dht.Key]any }
	handoffReq   struct{ Entries map[dht.Key]any }
	storeReq     struct {
		Key   dht.Key
		Value any
	}
	retrieveReq  struct{ Key dht.Key }
	retrieveResp struct {
		Value any
		Found bool
	}
	removeReq struct{ Key dht.Key }
	applyReq  struct {
		Key dht.Key
		Fn  dht.ApplyFunc
	}
	applyResp struct {
		Value any
		Keep  bool
	}
)

func newNode(net transport.Interface, addr transport.NodeID) (*Node, error) {
	n := &Node{
		addr:   addr,
		id:     dht.HashString(string(addr)),
		net:    net,
		leaves: make(map[transport.NodeID]ref),
		table:  make([][numCols]ref, numRows),
		store:  make(map[dht.Key]any),
	}
	if err := net.Register(addr, n); err != nil {
		return nil, fmt.Errorf("pastry: register %q: %w", addr, err)
	}
	return n, nil
}

// OnCrash implements transport.Crasher: a hard crash destroys the node's
// volatile memory — stored keys, replicas, leaf set, and routing table.
// Identity (address, ring position) survives so the node can restart and
// rejoin as the same peer with empty buckets.
func (n *Node) OnCrash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.store = make(map[dht.Key]any)
	n.replicas = nil
	n.replicaSeen = nil
	n.repRound = 0
	n.leaves = make(map[transport.NodeID]ref)
	n.table = make([][numCols]ref, numRows)
	n.vers.Reset()
}

// Addr returns the node's network address.
func (n *Node) Addr() transport.NodeID { return n.addr }

// ID returns the node's ring identifier.
func (n *Node) ID() dht.ID { return n.id }

func (n *Node) self() ref { return ref{Addr: n.addr, ID: n.id} }

// HandleRPC implements transport.Handler.
func (n *Node) HandleRPC(from transport.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case pingReq:
		return n.self(), nil
	case nextHopReq:
		return n.nextHop(r.Target), nil
	case getPeersReq:
		return getPeersResp{Peers: n.knownPeers()}, nil
	case announceReq:
		n.integrate([]ref{r.Peer})
		return struct{}{}, nil
	case retireReq:
		n.forget(r.Peer)
		return struct{}{}, nil
	case replicateReq:
		n.handleReplicate(r.Entries)
		return struct{}{}, nil
	case dropReplicaReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		delete(n.replicas, r.Key)
		delete(n.replicaSeen, r.Key)
		return struct{}{}, nil
	case claimReq:
		return n.handleClaim(r.Joiner), nil
	case handoffReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		for k, v := range r.Entries {
			n.store[k] = v
			n.vers.Bump(k)
		}
		return struct{}{}, nil
	case offerReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		for k, v := range r.Entries {
			if _, exists := n.store[k]; !exists {
				n.store[k] = v
				n.vers.Bump(k)
			}
		}
		return struct{}{}, nil
	case storeReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		n.store[r.Key] = r.Value
		n.vers.Bump(r.Key)
		return struct{}{}, nil
	case retrieveReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		v, ok := n.store[r.Key]
		if !ok {
			// Crash window: routing may already point here while the key
			// still sits in the replica store.
			v, ok = n.replicas[r.Key]
		}
		return retrieveResp{Value: v, Found: ok}, nil
	case removeReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		delete(n.store, r.Key)
		delete(n.replicas, r.Key)
		delete(n.replicaSeen, r.Key)
		n.vers.Bump(r.Key)
		return struct{}{}, nil
	case applyReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		cur, ok := n.store[r.Key]
		if !ok {
			if rv, rok := n.replicas[r.Key]; rok {
				cur, ok = rv, true
				n.store[r.Key] = rv // promote on write
				delete(n.replicas, r.Key)
			}
		}
		next, keep := r.Fn(cur, ok)
		if keep {
			n.store[r.Key] = next
		} else {
			delete(n.store, r.Key)
		}
		n.vers.Bump(r.Key)
		return applyResp{Value: next, Keep: keep}, nil
	case dht.GetVerReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		v, ok := n.store[r.Key]
		if !ok {
			if rv, rok := n.replicas[r.Key]; rok {
				// Promote on write intent, as applyReq does, so the CAS
				// that follows lands on the primary copy.
				v, ok = rv, true
				n.store[r.Key] = rv
				n.vers.Bump(r.Key)
				delete(n.replicas, r.Key)
				delete(n.replicaSeen, r.Key)
			}
		}
		return n.vers.Snapshot(r, v, ok), nil
	case dht.CASReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		cur, ok := n.store[r.Key]
		resp, apply := n.vers.CAS(r, cur, ok)
		if apply {
			if r.Keep {
				n.store[r.Key] = r.Value
			} else {
				delete(n.store, r.Key)
				delete(n.replicas, r.Key)
				delete(n.replicaSeen, r.Key)
			}
		}
		return resp, nil
	default:
		return nil, fmt.Errorf("pastry: %s: unknown request type %T", n.addr, req)
	}
}

// nextHop answers one greedy routing step: the best-known peer strictly
// closer to target than this node, or Done when none is known.
func (n *Node) nextHop(target dht.ID) nextHopResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	best := n.self()
	consider := func(c ref) {
		if !c.isZero() && closerTo(target, c.ID, best.ID) {
			best = c
		}
	}
	// Prefer the routing-table entry for the next digit — Pastry's prefix
	// rule — then let the leaf set refine.
	l := n.id.CommonPrefixDigits(target, digitBits)
	if l < numRows {
		consider(n.table[l][target.Digit(l, digitBits)])
	}
	for _, c := range n.leaves {
		consider(c)
	}
	for row := range n.table {
		for col := range n.table[row] {
			consider(n.table[row][col])
		}
	}
	if best.Addr == n.addr {
		return nextHopResp{Done: true, Next: n.self()}
	}
	return nextHopResp{Next: best}
}

// knownPeers returns the node's leaf set and routing-table entries, sorted
// by address: integrate keeps the first candidate for each routing-table
// slot, so map order here would make routing tables differ run to run.
func (n *Node) knownPeers() []ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	seen := make(map[transport.NodeID]ref, len(n.leaves))
	for a, c := range n.leaves {
		seen[a] = c
	}
	for row := range n.table {
		for _, c := range n.table[row] {
			if !c.isZero() {
				seen[c.Addr] = c
			}
		}
	}
	out := make([]ref, 0, len(seen))
	for _, c := range seen {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b ref) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}

// integrate merges candidate peers into the leaf set and routing table.
func (n *Node) integrate(cands []ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range cands {
		if c.isZero() || c.Addr == n.addr {
			continue
		}
		n.leaves[c.Addr] = c
		row := n.id.CommonPrefixDigits(c.ID, digitBits)
		if row >= numRows {
			continue
		}
		col := c.ID.Digit(row, digitBits)
		if n.table[row][col].isZero() {
			n.table[row][col] = c
		}
	}
	n.trimLeavesLocked()
}

// forget removes a departed peer from all local state.
func (n *Node) forget(peer ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.leaves, peer.Addr)
	for row := range n.table {
		for col := range n.table[row] {
			if n.table[row][col].Addr == peer.Addr {
				n.table[row][col] = ref{}
			}
		}
	}
}

// trimLeavesLocked keeps only the leafHalf nearest peers on each side of
// the ring. Callers hold n.mu.
func (n *Node) trimLeavesLocked() {
	if len(n.leaves) <= 2*leafHalf {
		return
	}
	type distEnt struct {
		c  ref
		cw dht.ID // clockwise distance from n to c
	}
	ents := make([]distEnt, 0, len(n.leaves))
	for _, c := range n.leaves {
		ents = append(ents, distEnt{c: c, cw: c.ID.Sub(n.id)})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].cw.Cmp(ents[j].cw) < 0 })
	keep := make(map[transport.NodeID]ref, 2*leafHalf)
	for i := 0; i < leafHalf && i < len(ents); i++ {
		keep[ents[i].c.Addr] = ents[i].c // clockwise side
	}
	for i := 0; i < leafHalf && i < len(ents); i++ {
		e := ents[len(ents)-1-i] // counter-clockwise side
		keep[e.c.Addr] = e.c
	}
	n.leaves = keep
}

// handleClaim yields the keys a joining peer now owns (those strictly
// closer to the joiner than to this node).
func (n *Node) handleClaim(joiner ref) claimResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[dht.Key]any)
	for k, v := range n.store {
		h := dht.HashKey(k)
		if closerTo(h, joiner.ID, n.id) {
			out[k] = v
			delete(n.store, k)
			n.vers.Bump(k)
		}
	}
	return claimResp{Entries: out}
}

func (n *Node) storeSnapshot() map[dht.Key]any {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[dht.Key]any, len(n.store))
	for k, v := range n.store {
		out[k] = v
	}
	return out
}

// StoreLen returns the number of entries stored on the node.
func (n *Node) StoreLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.store)
}

// LeafSet returns the addresses currently in the node's leaf set.
func (n *Node) LeafSet() []transport.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]transport.NodeID, 0, len(n.leaves))
	for a := range n.leaves {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Config tunes an Overlay.
type Config struct {
	// MaxHops bounds one routed lookup; 0 means a generous default.
	MaxHops int
	// Seed drives entry-point selection.
	Seed int64
	// Replication copies each key to the owner's Replication-1 nearest
	// leaf-set members (PAST/Bamboo style). 0 or 1 disables; capped at
	// leafHalf.
	Replication int
	// Retry governs the replication RPCs (replica pushes and drops). Nil
	// selects a default of 3 attempts with no backoff sleep — the simulated
	// network fails synchronously, so waiting buys nothing; real
	// deployments should supply a policy with a real Sleep.
	Retry *dht.RetryPolicy
	// Seeds names remote entry points for routing when the overlay manages
	// no local node (a client dialing a daemon cluster) or its first local
	// node must join an overlay hosted elsewhere. Over TCP a seed is a
	// dialable address; its identifier is the hash of that address.
	Seeds []transport.NodeID
}

// Overlay manages a set of Pastry nodes and exposes them as one dht.DHT.
type Overlay struct {
	net         transport.Interface
	maxHops     int
	replication int

	mu    sync.Mutex
	nodes map[transport.NodeID]*Node
	order []transport.NodeID
	// crashed retains crashed peers' node objects (volatile state already
	// wiped) so RestartNode can revive them under the same identity.
	crashed        map[transport.NodeID]*Node
	seeds          []ref
	rng            *rand.Rand
	retrier        *dht.Retrier
	lastReplicaErr error
	lastMaintErr   error

	// Lookups counts routed lookups; Hops counts next-hop RPCs.
	Lookups metrics.Counter
	Hops    metrics.Counter
	// ReplicationErrors counts replica pushes and drops that still failed
	// after the retry budget — replicas that stay missing until the next
	// stabilization round repairs them.
	ReplicationErrors metrics.Counter
	// MaintenanceErrors counts failed maintenance RPCs — the retire
	// notices a departing node sends and the announce messages that make
	// stabilized links symmetric. Each failure leaves a peer with stale
	// state until a later round repairs it; the counter surfaces what the
	// old fire-and-forget `_, _ = net.Call(...)` discarded.
	MaintenanceErrors metrics.Counter
}

var (
	_ dht.DHT        = (*Overlay)(nil)
	_ dht.Enumerator = (*Overlay)(nil)
)

// NewOverlay creates an empty overlay on net.
func NewOverlay(net transport.Interface, cfg Config) *Overlay {
	maxHops := cfg.MaxHops
	if maxHops <= 0 {
		maxHops = 512
	}
	replication := cfg.Replication
	if replication < 1 {
		replication = 1
	}
	if replication > leafHalf {
		replication = leafHalf
	}
	policy := dht.RetryPolicy{MaxAttempts: 3, Seed: cfg.Seed, Sleep: dht.NoSleep}
	if cfg.Retry != nil {
		policy = *cfg.Retry
	}
	seeds := make([]ref, 0, len(cfg.Seeds))
	for _, s := range cfg.Seeds {
		seeds = append(seeds, ref{Addr: s, ID: dht.HashString(string(s))})
	}
	return &Overlay{
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
func (o *Overlay) ReplicationRetrier() *dht.Retrier { return o.retrier }

// LastReplicationError returns the most recent replication push or drop
// that failed after exhausting its retry budget, or nil.
func (o *Overlay) LastReplicationError() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastReplicaErr
}

// LastMaintenanceError returns the most recent failed maintenance RPC, or
// nil. Pair with MaintenanceErrors to see both rate and cause.
func (o *Overlay) LastMaintenanceError() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastMaintErr
}

// noteMaintenanceError records one failed maintenance RPC.
func (o *Overlay) noteMaintenanceError(err error) {
	o.MaintenanceErrors.Inc()
	o.mu.Lock()
	o.lastMaintErr = err
	o.mu.Unlock()
}

// AddNode creates and joins a node at addr.
func (o *Overlay) AddNode(addr transport.NodeID) (*Node, error) {
	o.mu.Lock()
	if _, dup := o.nodes[addr]; dup {
		o.mu.Unlock()
		return nil, fmt.Errorf("pastry: node %q already in overlay", addr)
	}
	// An overlay with remote seeds is never "empty": its first local node
	// joins the overlay the seeds belong to instead of standing alone.
	empty := len(o.nodes) == 0 && len(o.seeds) == 0
	o.mu.Unlock()

	n, err := newNode(o.net, addr)
	if err != nil {
		return nil, err
	}
	if !empty {
		if err := o.join(n); err != nil {
			o.net.Deregister(addr)
			return nil, err
		}
	}
	o.mu.Lock()
	o.nodes[addr] = n
	o.order = append(o.order, addr)
	sort.Slice(o.order, func(i, j int) bool { return o.order[i] < o.order[j] })
	o.mu.Unlock()
	return n, nil
}

// join wires a new node in: route to the current owner of its identifier,
// seed local state from that node's view, announce, and claim keys.
func (o *Overlay) join(n *Node) error {
	owner, err := o.route(n.id)
	if err != nil {
		return fmt.Errorf("pastry: join %q: %w", n.addr, err)
	}
	peersAny, err := o.net.Call(clientAddr, owner.Addr, getPeersReq{})
	if err != nil {
		return fmt.Errorf("pastry: join %q: fetch peers: %w", n.addr, err)
	}
	peers, _ := peersAny.(getPeersResp)
	n.integrate(append(peers.Peers, owner))

	// Announce to everyone we now know, so they learn about us, and claim
	// the keys we own from each (ownership can move from any near peer).
	for _, p := range n.knownPeers() {
		if _, err := o.net.Call(n.addr, p.Addr, announceReq{Peer: n.self()}); err != nil {
			continue
		}
		claimAny, err := o.net.Call(n.addr, p.Addr, claimReq{Joiner: n.self()})
		if err != nil {
			continue
		}
		if claim, ok := claimAny.(claimResp); ok && len(claim.Entries) > 0 {
			n.mu.Lock()
			for k, v := range claim.Entries {
				n.store[k] = v
				n.vers.Bump(k)
			}
			n.mu.Unlock()
		}
	}
	return nil
}

// RemoveNode gracefully departs a node, handing its keys to the next-best
// owner and telling peers to forget it.
func (o *Overlay) RemoveNode(addr transport.NodeID) error {
	o.mu.Lock()
	n, ok := o.nodes[addr]
	if ok {
		delete(o.nodes, addr)
		o.order = removeAddr(o.order, addr)
	}
	last := len(o.nodes) == 0
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("pastry: node %q not in overlay", addr)
	}
	defer o.net.Deregister(addr)

	entries := n.storeSnapshot()
	peers := n.knownPeers()
	// A true singleton — the process's last local node knowing no remote
	// peers — departs silently; a daemon's only node has remote peers in
	// its tables and hands its shard off below.
	if last && len(peers) == 0 {
		return nil
	}
	// Tell peers to forget us before handing off, so re-routes skip us. A
	// peer that misses the notice keeps a dead routing entry until its next
	// stabilization probe, so failures are counted rather than fatal.
	for _, p := range peers {
		if _, err := o.net.Call(addr, p.Addr, retireReq{Peer: n.self()}); err != nil {
			o.noteMaintenanceError(fmt.Errorf("pastry: retire notice to %q from %q: %w", p.Addr, addr, err))
		}
	}
	if len(entries) > 0 {
		// Per-key handoff to the next-closest known peer.
		batches := make(map[transport.NodeID]map[dht.Key]any)
		for k, v := range entries {
			h := dht.HashKey(k)
			var best ref
			for _, p := range peers {
				if best.isZero() || closerTo(h, p.ID, best.ID) {
					best = p
				}
			}
			if best.isZero() {
				continue
			}
			if batches[best.Addr] == nil {
				batches[best.Addr] = make(map[dht.Key]any)
			}
			batches[best.Addr][k] = v
		}
		for dst, batch := range batches {
			if _, err := o.net.Call(addr, dst, handoffReq{Entries: batch}); err != nil {
				return fmt.Errorf("pastry: leave %q: handoff to %q: %w", addr, dst, err)
			}
		}
	}
	return nil
}

// CrashNode fails a node abruptly: its volatile state — stored keys,
// replicas, leaf set, routing table — is destroyed (transport Crash →
// Node.OnCrash), not merely hidden behind a partition. Peers discover the
// failure during Stabilize; RestartNode can later revive the identity.
func (o *Overlay) CrashNode(addr transport.NodeID) error {
	o.mu.Lock()
	n, ok := o.nodes[addr]
	if ok {
		delete(o.nodes, addr)
		o.order = removeAddr(o.order, addr)
		o.crashed[addr] = n
	}
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("pastry: node %q not in overlay", addr)
	}
	return o.net.Crash(addr)
}

// RestartNode revives a crashed node under its old identity: the network
// registration comes back up, the node rejoins (re-seeding its leaf set and
// routing table from the current owner of its identifier and claiming back
// the keys it owns), and the replication retrier forgets the peer's past
// failures so its circuit breaker does not shed traffic to a now-healthy
// node.
func (o *Overlay) RestartNode(addr transport.NodeID) (*Node, error) {
	o.mu.Lock()
	n, ok := o.crashed[addr]
	if ok {
		delete(o.crashed, addr)
	}
	empty := len(o.nodes) == 0
	o.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("pastry: node %q is not crashed", addr)
	}
	if err := o.net.Restart(addr); err != nil {
		o.mu.Lock()
		o.crashed[addr] = n
		o.mu.Unlock()
		return nil, err
	}
	if !empty {
		if err := o.join(n); err != nil {
			// Rejoin failed: put the node back down so a later restart
			// attempt starts clean.
			o.net.SetDown(addr, true)
			o.mu.Lock()
			o.crashed[addr] = n
			o.mu.Unlock()
			return nil, err
		}
	}
	o.mu.Lock()
	o.nodes[addr] = n
	o.order = append(o.order, addr)
	sort.Slice(o.order, func(i, j int) bool { return o.order[i] < o.order[j] })
	o.mu.Unlock()
	o.retrier.ResetOwner(string(addr))
	return n, nil
}

// CrashedNodes returns the addresses of crashed, restartable nodes in
// sorted order — the churn scheduler's restart candidates.
func (o *Overlay) CrashedNodes() []transport.NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]transport.NodeID, 0, len(o.crashed))
	for addr := range o.crashed {
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

// Stabilize runs Bamboo-style periodic repair: every node probes its known
// peers, drops dead ones, merges the leaf sets of live neighbours, and
// rebuilds its routing table.
func (o *Overlay) Stabilize(rounds int) {
	for i := 0; i < rounds; i++ {
		for _, addr := range o.Nodes() {
			n, ok := o.nodeAt(addr)
			if !ok {
				continue
			}
			o.stabilizeNode(n)
		}
		// Replica leases expire only after every node has re-pushed its
		// primaries this round, so current targets are always refreshed
		// before their lease is checked. Expired copies are offered to the
		// key's current owner rather than destroyed — see
		// relocateStaleReplicas.
		if o.replication > 1 {
			for _, addr := range o.Nodes() {
				if n, ok := o.nodeAt(addr); ok {
					o.relocateStaleReplicas(n)
				}
			}
		}
	}
}

func (o *Overlay) stabilizeNode(n *Node) {
	known := n.knownPeers()
	live := make([]ref, 0, len(known))
	var dead []ref
	for _, p := range known {
		if _, err := o.net.Call(n.addr, p.Addr, pingReq{}); err != nil {
			dead = append(dead, p)
		} else {
			live = append(live, p)
		}
	}
	for _, p := range dead {
		n.forget(p)
	}
	merged := append([]ref(nil), live...)
	for _, p := range live {
		peersAny, err := o.net.Call(n.addr, p.Addr, getPeersReq{})
		if err != nil {
			continue
		}
		if resp, ok := peersAny.(getPeersResp); ok {
			merged = append(merged, resp.Peers...)
		}
	}
	// Verify second-hand peers are alive before adopting them.
	adopted := make([]ref, 0, len(merged))
	seen := make(map[transport.NodeID]bool, len(merged))
	for _, p := range merged {
		if p.Addr == n.addr || seen[p.Addr] {
			continue
		}
		seen[p.Addr] = true
		if _, err := o.net.Call(n.addr, p.Addr, pingReq{}); err == nil {
			adopted = append(adopted, p)
		}
	}
	n.integrate(adopted)
	// Announce ourselves to newly learned peers so links become symmetric.
	// A lost announce delays symmetry to a later round; count it so churn
	// outpacing repair is visible.
	for _, p := range adopted {
		if _, err := o.net.Call(n.addr, p.Addr, announceReq{Peer: n.self()}); err != nil {
			o.noteMaintenanceError(fmt.Errorf("pastry: announce to %q from %q: %w", p.Addr, n.addr, err))
		}
	}
	o.promoteOwnedReplicas(n)
	o.reReplicate(n)
}

// Nodes returns the managed node addresses in sorted order.
func (o *Overlay) Nodes() []transport.NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]transport.NodeID(nil), o.order...)
}

// NumNodes returns the number of managed nodes.
func (o *Overlay) NumNodes() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.nodes)
}

func (o *Overlay) nodeAt(addr transport.NodeID) (*Node, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := o.nodes[addr]
	return n, ok
}

func (o *Overlay) pickEntry() (*Node, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.order) == 0 {
		return nil, dht.ErrNoPeers
	}
	return o.nodes[o.order[o.rng.Intn(len(o.order))]], nil
}

// seedOrder returns the seeds in the order a route to target that starts
// at a seed tries them: numerically closest to target first. That is the
// owner itself when it is a seed, so the route is one step, and a dead seed
// costs one attempt.
func (o *Overlay) seedOrder(target dht.ID) []ref {
	ranked := slices.Clone(o.seeds)
	slices.SortFunc(ranked, func(a, b ref) int {
		if closerTo(target, a.ID, b.ID) {
			return -1
		}
		if closerTo(target, b.ID, a.ID) {
			return 1
		}
		return 0
	})
	return ranked
}

// route resolves the owner of target, retrying across entry points when
// stale state fails a trace. An overlay that hosts live managed nodes
// starts each attempt at a random one. Otherwise (client/daemon mode) its
// attempts go through the seeds in seedOrder, every seed at least once.
func (o *Overlay) route(target dht.ID) (ref, error) {
	const retries = 3
	var seeds []ref
	var lastErr error
	for attempt := 0; attempt < max(retries, len(seeds)); attempt++ {
		var entry ref
		if n, err := o.pickEntry(); err == nil {
			entry = n.self()
		} else {
			if seeds == nil {
				seeds = o.seedOrder(target)
			}
			if len(seeds) == 0 {
				return ref{}, dht.ErrNoPeers
			}
			entry = seeds[attempt%len(seeds)]
		}
		found, err := o.trace(entry, target)
		if err == nil {
			o.Lookups.Inc()
			return found, nil
		}
		lastErr = err
	}
	return ref{}, fmt.Errorf("%w: %v", ErrLookupFailed, lastErr)
}

func (o *Overlay) trace(cur ref, target dht.ID) (ref, error) {
	for hop := 0; hop < o.maxHops; hop++ {
		respAny, err := o.net.Call(clientAddr, cur.Addr, nextHopReq{Target: target})
		o.Hops.Inc()
		if err != nil {
			return ref{}, fmt.Errorf("pastry: step via %q: %w", cur.Addr, err)
		}
		resp, ok := respAny.(nextHopResp)
		if !ok {
			return ref{}, fmt.Errorf("pastry: step via %q: bad response %T", cur.Addr, respAny)
		}
		if resp.Done {
			return cur, nil
		}
		if !closerTo(target, resp.Next.ID, cur.ID) {
			return ref{}, fmt.Errorf("pastry: non-monotone hop %q → %q", cur.Addr, resp.Next.Addr)
		}
		cur = resp.Next
	}
	return ref{}, fmt.Errorf("pastry: exceeded %d hops", o.maxHops)
}

// Put implements dht.DHT.
func (o *Overlay) Put(key dht.Key, value any) error {
	owner, err := o.route(dht.HashKey(key))
	if err != nil {
		return err
	}
	if _, err := o.net.Call(clientAddr, owner.Addr, storeReq{Key: key, Value: value}); err != nil {
		return err
	}
	o.replicate(owner, key, value)
	return nil
}

// Get implements dht.DHT.
func (o *Overlay) Get(key dht.Key) (any, bool, error) {
	owner, err := o.route(dht.HashKey(key))
	if err != nil {
		return nil, false, err
	}
	respAny, err := o.net.Call(clientAddr, owner.Addr, retrieveReq{Key: key})
	if err != nil {
		return nil, false, err
	}
	resp, ok := respAny.(retrieveResp)
	if !ok {
		return nil, false, fmt.Errorf("pastry: bad retrieve response %T", respAny)
	}
	return resp.Value, resp.Found, nil
}

// Remove implements dht.DHT.
func (o *Overlay) Remove(key dht.Key) error {
	owner, err := o.route(dht.HashKey(key))
	if err != nil {
		return err
	}
	if _, err := o.net.Call(clientAddr, owner.Addr, removeReq{Key: key}); err != nil {
		return err
	}
	o.dropReplicas(owner, key)
	return nil
}

// Apply implements dht.DHT: the post-apply value is pushed to the leaf-set
// replicas.
func (o *Overlay) Apply(key dht.Key, fn dht.ApplyFunc) error {
	owner, err := o.route(dht.HashKey(key))
	if err != nil {
		return err
	}
	if !transport.SupportsInline(o.net) {
		// A closure cannot cross a real socket: run the transform
		// client-side under the wire-safe versioned CAS protocol.
		value, keep, err := dht.RemoteApply(func(req any) (any, error) {
			return o.net.Call(clientAddr, owner.Addr, req)
		}, key, fn)
		if err != nil {
			return err
		}
		if o.replication > 1 {
			if keep {
				o.replicate(owner, key, value)
			} else {
				o.dropReplicas(owner, key)
			}
		}
		return nil
	}
	respAny, err := o.net.Call(clientAddr, owner.Addr, applyReq{Key: key, Fn: fn})
	if err != nil {
		return err
	}
	if resp, ok := respAny.(applyResp); ok && o.replication > 1 {
		if resp.Keep {
			o.replicate(owner, key, resp.Value)
		} else {
			o.dropReplicas(owner, key)
		}
	}
	return nil
}

// Owner implements dht.DHT.
func (o *Overlay) Owner(key dht.Key) (string, error) {
	owner, err := o.route(dht.HashKey(key))
	if err != nil {
		return "", err
	}
	return string(owner.Addr), nil
}

// Range implements dht.Enumerator.
func (o *Overlay) Range(fn func(key dht.Key, value any) bool) error {
	for _, addr := range o.Nodes() {
		n, ok := o.nodeAt(addr)
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

// MeanRouteLength returns the average hops per completed lookup so far.
func (o *Overlay) MeanRouteLength() float64 {
	lookups := o.Lookups.Load()
	if lookups == 0 {
		return 0
	}
	return float64(o.Hops.Load()) / float64(lookups)
}
