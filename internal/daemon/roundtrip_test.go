package daemon_test

import (
	"testing"
	"time"

	"mlight/internal/chord"
	"mlight/internal/daemon"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/pastry"
	"mlight/internal/transport"
)

// TestClientRoundTrips pins what a client of a daemon cluster — the ring
// mlight.Dial builds, with the daemons as seeds — spends per operation: one
// routing step plus the request (GetVer and CAS for an Apply), no ping.
func TestClientRoundTrips(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("real-socket daemon suite is not short")
	}
	overlays := map[string]dhttest.RoundTrips{
		"chord": {
			Dial: func(tr transport.Interface, seeds []transport.NodeID) dht.DHT {
				return chord.NewRing(tr, chord.Config{Seeds: seeds})
			},
			SeedOrder: dhttest.ClosestPrecedingSeedFirst,
			Route:     "chord.lookupStepReq",
			Ping:      "chord.pingReq",
			Store:     "chord.storeReq",
			Retrieve:  "chord.retrieveReq",
			Remove:    "chord.removeReq",
		},
		"pastry": {
			Dial: func(tr transport.Interface, seeds []transport.NodeID) dht.DHT {
				return pastry.NewOverlay(tr, pastry.Config{Seeds: seeds})
			},
			SeedOrder: dhttest.NumericallyClosestSeedFirst,
			Route:     "pastry.nextHopReq",
			Ping:      "pastry.pingReq",
			Store:     "pastry.storeReq",
			Retrieve:  "pastry.retrieveReq",
			Remove:    "pastry.removeReq",
		},
	}
	for substrate, rt := range overlays {
		t.Run(substrate, func(t *testing.T) {
			_, addrs := startCluster(t, 3, daemon.Config{Substrate: substrate, StabilizeEvery: 50 * time.Millisecond})
			for _, a := range addrs {
				rt.Nodes = append(rt.Nodes, transport.NodeID(a))
			}
			rt.Dead = dhttest.UnusedTCPAddr
			rt.Transport = func(t *testing.T) transport.Interface {
				tr := transport.NewTCP(transport.TCPOptions{})
				t.Cleanup(func() {
					if err := tr.Close(); err != nil {
						t.Errorf("client transport close: %v", err)
					}
				})
				return tr
			}
			dhttest.RunRoundTrips(t, rt)
		})
	}
}
