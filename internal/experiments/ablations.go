package experiments

import (
	"fmt"

	"mlight/internal/chord"
	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/kademlia"
	"mlight/internal/pastry"
	"mlight/internal/pht"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/workload"
)

// Ablations runs the design-choice experiments that go beyond the paper's
// evaluation:
//
//   - AblLookahead: the parallel range query's bandwidth/latency trade as
//     the lookahead h grows (the paper shows h ∈ {2,4}; this sweeps further);
//   - AblSplitCost: records moved per split event for m-LIGHT versus PHT —
//     Theorem 5's incremental-maintenance claim isolated from lookups;
//   - AblOverlay: mean overlay route length per DHT operation for Chord and
//     Pastry as the ring grows — the cost hidden beneath one "DHT-lookup";
//   - AblDims: lookup probes and per-insert cost as dimensionality m grows
//     (the paper's algorithms are defined for any m but evaluated at m=2).
func Ablations(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var out []Table
	t, err := ablationLookahead(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, t)
	t, err = ablationSplitCost(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, t)
	t, err = ablationOverlay(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, t)
	t, err = ablationDims(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, t)
	t, err = ablationBulkLoad(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, t)
	return out, nil
}

// ablationBulkLoad compares offline bulk loading against progressive
// insertion (an extension beyond the paper's insert-only maintenance
// study).
func ablationBulkLoad(cfg Config) (Table, error) {
	all := cfg.records()
	bulk := Series{Name: "bulk-load DHT-lookups"}
	incr := Series{Name: "incremental DHT-lookups"}
	for _, frac := range []int{4, 2, 1} {
		records := all[:len(all)/frac]
		opts := core.Options{
			Dims: cfg.Dims, MaxDepth: cfg.MaxDepth,
			ThetaSplit: cfg.ThetaSplit, ThetaMerge: cfg.ThetaSplit / 2,
		}
		bulkIx, err := core.New(dht.MustNewLocal(cfg.Peers), opts)
		if err != nil {
			return Table{}, err
		}
		if err := bulkIx.BulkLoad(records); err != nil {
			return Table{}, fmt.Errorf("experiments: bulk-load ablation: %w", err)
		}
		incrIx, err := core.New(dht.MustNewLocal(cfg.Peers), opts)
		if err != nil {
			return Table{}, err
		}
		for i, rec := range records {
			if err := incrIx.Insert(rec); err != nil {
				return Table{}, fmt.Errorf("experiments: bulk-load ablation insert #%d: %w", i, err)
			}
		}
		x := float64(len(records))
		bulk.Points = append(bulk.Points, Point{X: x, Y: float64(bulkIx.Stats().DHTLookups)})
		incr.Points = append(incr.Points, Point{X: x, Y: float64(incrIx.Stats().DHTLookups)})
	}
	return Table{
		ID:     "AblBulkLoad",
		Title:  "Offline bulk load vs progressive insertion",
		XLabel: "data size", YLabel: "DHT-lookups (total)",
		Series: []Series{bulk, incr},
	}, nil
}

// ablationLookahead sweeps the parallel lookahead h at a fixed span.
func ablationLookahead(cfg Config) (Table, error) {
	records := cfg.records()
	ix, err := core.New(dht.MustNewLocal(cfg.Peers), core.Options{
		Dims: cfg.Dims, MaxDepth: cfg.MaxDepth,
		ThetaSplit: cfg.ThetaSplit, ThetaMerge: cfg.ThetaSplit / 2,
	})
	if err != nil {
		return Table{}, err
	}
	for i, rec := range records {
		if err := ix.Insert(rec); err != nil {
			return Table{}, fmt.Errorf("experiments: lookahead ablation insert #%d: %w", i, err)
		}
	}
	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+200)
	if err != nil {
		return Table{}, err
	}
	const span = 0.3
	queries, err := gen.SpanBatch(span, cfg.QueriesPerSpan)
	if err != nil {
		return Table{}, err
	}
	bw := Series{Name: "DHT-lookups per query"}
	lat := Series{Name: "rounds per query"}
	for _, h := range []int{1, 2, 4, 8, 16, 32} {
		totalL, totalR := 0, 0
		for _, q := range queries {
			res, err := ix.RangeQueryParallel(q, h)
			if err != nil {
				return Table{}, err
			}
			totalL += res.Lookups
			totalR += res.Rounds
		}
		n := float64(len(queries))
		bw.Points = append(bw.Points, Point{X: float64(h), Y: float64(totalL) / n})
		lat.Points = append(lat.Points, Point{X: float64(h), Y: float64(totalR) / n})
	}
	return Table{
		ID:     "AblLookahead",
		Title:  fmt.Sprintf("Parallel lookahead sweep (span %.2f)", span),
		XLabel: "lookahead h", YLabel: "per-query cost",
		Series: []Series{bw, lat},
	}, nil
}

// ablationSplitCost isolates Theorem 5: records moved per split event.
func ablationSplitCost(cfg Config) (Table, error) {
	records := cfg.records()
	ml := Series{Name: "m-LIGHT moved per split"}
	ph := Series{Name: "PHT moved per split"}
	for _, theta := range cfg.Thetas {
		mlIx, err := core.New(dht.MustNewLocal(cfg.Peers), core.Options{
			Dims: cfg.Dims, MaxDepth: cfg.MaxDepth,
			ThetaSplit: theta, ThetaMerge: theta / 2,
		})
		if err != nil {
			return Table{}, err
		}
		phIx, err := pht.New(dht.MustNewLocal(cfg.Peers), pht.Options{
			Dims: cfg.Dims, MaxDepth: cfg.MaxDepth,
			LeafCapacity: theta, MergeThreshold: theta / 2,
		})
		if err != nil {
			return Table{}, err
		}
		for i, rec := range records {
			if err := mlIx.Insert(rec); err != nil {
				return Table{}, fmt.Errorf("experiments: split ablation insert #%d: %w", i, err)
			}
			if err := phIx.Insert(rec); err != nil {
				return Table{}, fmt.Errorf("experiments: split ablation insert #%d: %w", i, err)
			}
		}
		mlStats, phStats := mlIx.Stats(), phIx.Stats()
		// Subtract the one-per-insert placement movement to isolate split
		// transfers.
		n := int64(len(records))
		if mlStats.Splits > 0 {
			ml.Points = append(ml.Points, Point{
				X: float64(theta),
				Y: float64(mlStats.RecordsMoved-n) / float64(mlStats.Splits),
			})
		}
		if phStats.Splits > 0 {
			ph.Points = append(ph.Points, Point{
				X: float64(theta),
				Y: float64(phStats.RecordsMoved-n) / float64(phStats.Splits),
			})
		}
	}
	return Table{
		ID:     "AblSplitCost",
		Title:  "Incremental maintenance (Theorem 5): records moved per split event",
		XLabel: "θsplit", YLabel: "records moved per split",
		Series: []Series{ml, ph},
	}, nil
}

// ablationOverlay measures mean route length under the index workload as
// the overlay grows.
func ablationOverlay(cfg Config) (Table, error) {
	// A reduced record count keeps overlay runs fast; route length depends
	// on the ring size, not the data volume.
	records := dataset.Generate(minInt(cfg.DataSize, 2000), cfg.Seed)
	chordSeries := Series{Name: "Chord hops per DHT op"}
	pastrySeries := Series{Name: "Pastry hops per DHT op"}
	kadSeries := Series{Name: "Kademlia RPCs per DHT op"}
	for _, peers := range []int{8, 16, 32, 64} {
		net := simnet.New(simnet.Options{})
		ring := chord.NewRing(net, chord.Config{Seed: cfg.Seed})
		for i := 0; i < peers; i++ {
			if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
				return Table{}, err
			}
		}
		ring.Stabilize(2)
		ring.Hops.Reset()
		ring.Lookups.Reset()
		if err := runIndexWorkload(ring, cfg, records); err != nil {
			return Table{}, fmt.Errorf("experiments: chord overlay ablation: %w", err)
		}
		chordSeries.Points = append(chordSeries.Points, Point{X: float64(peers), Y: ring.MeanRouteLength()})

		net2 := simnet.New(simnet.Options{})
		overlay := pastry.NewOverlay(net2, pastry.Config{Seed: cfg.Seed})
		for i := 0; i < peers; i++ {
			if _, err := overlay.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
				return Table{}, err
			}
		}
		overlay.Stabilize(2)
		overlay.Hops.Reset()
		overlay.Lookups.Reset()
		if err := runIndexWorkload(overlay, cfg, records); err != nil {
			return Table{}, fmt.Errorf("experiments: pastry overlay ablation: %w", err)
		}
		pastrySeries.Points = append(pastrySeries.Points, Point{X: float64(peers), Y: overlay.MeanRouteLength()})

		net3 := simnet.New(simnet.Options{})
		kad := kademlia.NewOverlay(net3, kademlia.Config{Seed: cfg.Seed})
		for i := 0; i < peers; i++ {
			if _, err := kad.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
				return Table{}, err
			}
		}
		kad.Stabilize(2)
		kad.Hops.Reset()
		kad.Lookups.Reset()
		if err := runIndexWorkload(kad, cfg, records); err != nil {
			return Table{}, fmt.Errorf("experiments: kademlia overlay ablation: %w", err)
		}
		kadSeries.Points = append(kadSeries.Points, Point{X: float64(peers), Y: kad.MeanRouteLength()})
	}
	return Table{
		ID:     "AblOverlay",
		Title:  "Substrate ablation: overlay route length under the index workload",
		XLabel: "peers", YLabel: "mean hops per DHT operation",
		Series: []Series{chordSeries, pastrySeries, kadSeries},
	}, nil
}

// runIndexWorkload loads records and runs a few range queries through an
// m-LIGHT index over the given substrate. Probes go out one at a time: the
// overlay draws each lookup's entry point from one seeded generator, so
// concurrent probes would make route lengths depend on scheduling. Lookups
// and rounds are the same either way.
func runIndexWorkload(d dht.DHT, cfg Config, records []spatial.Record) error {
	ix, err := core.New(d, core.Options{
		Dims: cfg.Dims, MaxDepth: cfg.MaxDepth,
		ThetaSplit: cfg.ThetaSplit, ThetaMerge: cfg.ThetaSplit / 2,
		MaxInFlight: 1,
	})
	if err != nil {
		return err
	}
	for i, rec := range records {
		if err := ix.Insert(rec); err != nil {
			return fmt.Errorf("insert #%d: %w", i, err)
		}
	}
	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+300)
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		q, err := gen.Span(0.2)
		if err != nil {
			return err
		}
		if _, err := ix.RangeQuery(q); err != nil {
			return fmt.Errorf("query #%d: %w", i, err)
		}
	}
	return nil
}

// ablationDims sweeps dimensionality with uniform data.
func ablationDims(cfg Config) (Table, error) {
	probes := Series{Name: "mean lookup probes"}
	insertCost := Series{Name: "DHT-lookups per insert"}
	n := minInt(cfg.DataSize, 10000)
	for _, m := range []int{1, 2, 3, 4, 5} {
		records := dataset.Uniform(n, m, cfg.Seed)
		ix, err := core.New(dht.MustNewLocal(cfg.Peers), core.Options{
			Dims: m, MaxDepth: minInt(cfg.MaxDepth, 63-m),
			ThetaSplit: cfg.ThetaSplit, ThetaMerge: cfg.ThetaSplit / 2,
		})
		if err != nil {
			return Table{}, err
		}
		for i, rec := range records {
			if err := ix.Insert(rec); err != nil {
				return Table{}, fmt.Errorf("experiments: dims ablation m=%d insert #%d: %w", m, i, err)
			}
		}
		stats := ix.Stats()
		insertCost.Points = append(insertCost.Points, Point{
			X: float64(m), Y: float64(stats.DHTLookups) / float64(n),
		})
		totalProbes := 0
		sample := records[:minInt(len(records), 500)]
		for _, rec := range sample {
			_, trace, err := ix.LookupTraced(rec.Key)
			if err != nil {
				return Table{}, err
			}
			totalProbes += trace.Probes
		}
		probes.Points = append(probes.Points, Point{
			X: float64(m), Y: float64(totalProbes) / float64(len(sample)),
		})
	}
	return Table{
		ID:     "AblDims",
		Title:  "Dimensionality sweep (uniform data)",
		XLabel: "dimensionality m", YLabel: "cost",
		Series: []Series{probes, insertCost},
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
