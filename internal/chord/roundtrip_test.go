package chord

import (
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/transport"
)

// TestClientRoundTrips pins a seeds-only client's cost per operation: one
// routing step from the closest preceding seed plus the request, which
// doubles as the owner's liveness check.
func TestClientRoundTrips(t *testing.T) {
	dhttest.RunClientRoundTrips(t, func(t *testing.T, net transport.Interface, addrs []transport.NodeID) dhttest.RoundTrips {
		cluster := NewRing(net, Config{Seed: 1})
		for _, a := range addrs {
			if _, err := cluster.AddNode(a); err != nil {
				t.Fatalf("AddNode(%s): %v", a, err)
			}
		}
		cluster.Stabilize(2)
		return dhttest.RoundTrips{
			Dial: func(tr transport.Interface, seeds []transport.NodeID) dht.DHT {
				return NewRing(tr, Config{Seed: 1, Seeds: seeds})
			},
			SeedOrder: dhttest.ClosestPrecedingSeedFirst,
			Crash:     cluster.CrashNode,
			Stabilize: func() { cluster.Stabilize(2) },
			Route:     "chord.lookupStepReq",
			Ping:      "chord.pingReq",
			Store:     "chord.storeReq",
			Retrieve:  "chord.retrieveReq",
			Remove:    "chord.removeReq",
			Apply:     "chord.applyReq",
		}
	})
}
