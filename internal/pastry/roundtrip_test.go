package pastry

import (
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/transport"
)

// TestClientRoundTrips pins a seeds-only client's cost per operation: one
// routing step at the numerically closest seed, the owner, plus the
// request.
func TestClientRoundTrips(t *testing.T) {
	dhttest.RunClientRoundTrips(t, func(t *testing.T, net transport.Interface, addrs []transport.NodeID) dhttest.RoundTrips {
		cluster := NewOverlay(net, Config{Seed: 1})
		for _, a := range addrs {
			if _, err := cluster.AddNode(a); err != nil {
				t.Fatalf("AddNode(%s): %v", a, err)
			}
		}
		cluster.Stabilize(2)
		return dhttest.RoundTrips{
			Dial: func(tr transport.Interface, seeds []transport.NodeID) dht.DHT {
				return NewOverlay(tr, Config{Seed: 1, Seeds: seeds})
			},
			SeedOrder: dhttest.NumericallyClosestSeedFirst,
			Crash:     cluster.CrashNode,
			Stabilize: func() { cluster.Stabilize(2) },
			Route:     "pastry.nextHopReq",
			Ping:      "pastry.pingReq",
			Store:     "pastry.storeReq",
			Retrieve:  "pastry.retrieveReq",
			Remove:    "pastry.removeReq",
			Apply:     "pastry.applyReq",
		}
	})
}
