package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mlight"
	"mlight/internal/chord"
	"mlight/internal/core"
	"mlight/internal/daemon"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/simnet"
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// deployment is one running index: its client stacks and how to stop it.
type deployment struct {
	ixs     []*core.Index
	tracers []*opTracer // one per client when traced
	closers []func() error
	// stores enumerates every store the deployment's nodes hold (traced
	// deployments only), for the wire layer's space amplification.
	stores []*chord.Ring
}

func (d *deployment) close() error {
	var errs []error
	for i := len(d.closers) - 1; i >= 0; i-- {
		errs = append(errs, d.closers[i]())
	}
	d.closers = nil
	return errors.Join(errs...)
}

// storedBytes sums the encoded bucket bytes the nodes store.
func (d *deployment) storedBytes() (int64, error) {
	var n int64
	for _, r := range d.stores {
		err := r.Range(func(_ dht.Key, v any) bool {
			if b, ok := v.([]byte); ok {
				n += int64(len(b))
			}
			return true
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// tcpDaemons is the size of the loopback TCP cluster; tcpReplication its
// replication factor.
const (
	tcpDaemons     = 3
	tcpReplication = 2
)

// deploy builds a deployment for w. Untraced, it uses only the public
// constructors with library defaults; traced, it assembles the same stack
// from the constructors those call, with timing decorators at each layer
// boundary.
func deploy(w *workload, seed int64, traced bool) (*deployment, error) {
	switch {
	case !w.tcp && !traced:
		ring, _, err := mlight.NewChordCluster(simPeers, seed)
		if err != nil {
			return nil, err
		}
		ix, err := mlight.New(mlight.NewByteDHT(ring))
		if err != nil {
			return nil, err
		}
		return &deployment{ixs: []*core.Index{ix}}, nil
	case !w.tcp:
		return deploySimTraced(seed)
	default:
		return deployTCP(w, seed, traced)
	}
}

// deploySimTraced mirrors mlight.NewChordCluster + mlight.NewByteDHT +
// mlight.New with decorators.
func deploySimTraced(seed int64) (*deployment, error) {
	t := &opTracer{}
	net := &tracedTransport{inner: simnet.New(simnet.Options{}), t: t, reg: newRegistry()}
	ring := chord.NewRing(net, chord.Config{Seed: seed, Replication: 1})
	for i := 0; i < simPeers; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			return nil, fmt.Errorf("chord cluster: %w", err)
		}
	}
	ring.Stabilize(2)
	ix, err := tracedIndex(ring, t)
	if err != nil {
		return nil, err
	}
	return &deployment{ixs: []*core.Index{ix}, tracers: []*opTracer{t}, stores: []*chord.Ring{ring}}, nil
}

// tracedIndex stacks core over ByteDHT over the overlay, with a decorator
// on each side of ByteDHT and one around its codec.
func tracedIndex(overlay *chord.Ring, t *opTracer, opts ...mlight.Option) (*core.Index, error) {
	b := wire.NewByteDHT(&tracedDHT{inner: overlay, t: t, l: lChord}, &tracedCodec{inner: wire.BucketCodec{}, t: t})
	return core.New(&tracedDHT{inner: b, t: t, l: lWire}, core.FromTuning(index.Resolve(opts...)))
}

// deployTCP starts the daemons and dials one client per workload client.
func deployTCP(w *workload, seed int64, traced bool) (dep *deployment, err error) {
	dep = &deployment{}
	defer func() {
		if err != nil {
			_ = dep.close() // the set-up error is the one to report
			dep = nil
		}
	}()
	reg := newRegistry()
	var addrs []string
	for i := 0; i < tcpDaemons; i++ {
		cfg := daemon.Config{Seeds: addrs, Replication: tcpReplication, Seed: seed + int64(i)}
		if !traced {
			d, err := daemon.Start(cfg)
			if err != nil {
				return nil, fmt.Errorf("start daemon %d: %w", i, err)
			}
			dep.closers = append(dep.closers, d.Close)
			addrs = append(addrs, d.Addr())
			continue
		}
		addr, ring, stop, err := startTracedDaemon(cfg, reg)
		if err != nil {
			return nil, fmt.Errorf("start daemon %d: %w", i, err)
		}
		dep.closers = append(dep.closers, stop)
		dep.stores = append(dep.stores, ring)
		addrs = append(addrs, addr)
	}
	retry := mlight.WithRetry(mlight.RetryPolicy{})
	for c := 0; c < w.clients; c++ {
		if !traced {
			cl, err := mlight.Dial(addrs, retry)
			if err != nil {
				return nil, err
			}
			dep.closers = append(dep.closers, cl.Close)
			dep.ixs = append(dep.ixs, cl.Index)
			continue
		}
		// As mlight.Dial builds a client, with decorators.
		tr := transport.NewTCP(transport.TCPOptions{})
		dep.closers = append(dep.closers, tr.Close)
		t := &opTracer{}
		seeds := make([]transport.NodeID, len(addrs))
		for i, a := range addrs {
			seeds[i] = transport.NodeID(a)
		}
		ring := chord.NewRing(&tracedTransport{inner: tr, t: t, reg: reg}, chord.Config{Seeds: seeds})
		ix, err := tracedIndex(ring, t, retry)
		if err != nil {
			return nil, err
		}
		dep.ixs = append(dep.ixs, ix)
		dep.tracers = append(dep.tracers, t)
	}
	return dep, nil
}

// startTracedDaemon does what daemon.Start does for a chord daemon without
// a WAL, over a transport whose handlers are traced.
func startTracedDaemon(cfg daemon.Config, reg *registry) (string, *chord.Ring, func() error, error) {
	tr := transport.NewTCP(transport.TCPOptions{})
	addr, err := tr.Reserve()
	if err != nil {
		tr.Close()
		return "", nil, nil, err
	}
	var seeds []transport.NodeID
	for _, s := range cfg.Seeds {
		seeds = append(seeds, transport.NodeID(s))
	}
	ring := chord.NewRing(&tracedTransport{inner: tr, reg: reg}, chord.Config{
		Seed: cfg.Seed, Replication: cfg.Replication, Seeds: seeds,
	})
	var joinErr error
	for i := 0; i < 20; i++ {
		if i > 0 {
			time.Sleep(250 * time.Millisecond)
		}
		if _, joinErr = ring.AddNode(addr); joinErr == nil {
			break
		}
	}
	if joinErr != nil {
		tr.Close()
		return "", nil, nil, fmt.Errorf("join: %w", joinErr)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(500 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				ring.Stabilize(1)
			case <-stop:
				return
			}
		}
	}()
	var once sync.Once
	var closeErr error
	closeFn := func() error {
		once.Do(func() {
			close(stop)
			<-done
			closeErr = errors.Join(ring.RemoveNode(addr), tr.Close())
		})
		return closeErr
	}
	return string(addr), ring, closeFn, nil
}
