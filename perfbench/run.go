package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mlight/internal/dataset"
	"mlight/internal/metrics"
	"mlight/internal/spatial"
)

// setupReps is how many times an untraced run sets its deployment up;
// setup_s is the median.
const setupReps = 5

// ingestWarmRecords is how many records the ingest warm-up pass inserts.
const ingestWarmRecords = 5000

// phaseResult is everything one timed phase measured.
type phaseResult struct {
	setups  []float64 // seconds per set-up
	warm    phaseStats
	timed   phaseStats
	warmS   float64 // warm-up wall time
	timedS  float64 // timed phase wall time
	passes  int     // ingest passes
	heapMiB float64
	index   metrics.Snapshot           // index counters over the timed phase
	retry   metrics.ResilienceSnapshot // retry-layer counters over the timed phase
	rt      runtimeDelta
	agg     traceAgg // traced phases only
	stored  int64    // encoded bytes stored at the end (traced phases only)
	user    int64    // user bytes stored at the end
}

// runtimeDelta is the process's allocation, GC and CPU cost over a phase,
// and the machine's stolen CPU ticks out of its total.
type runtimeDelta struct {
	mallocs, allocBytes, gcs int64
	cpu                      time.Duration
	steal, host              int64
}

type runtimeMark struct {
	ms          runtime.MemStats
	cpu         time.Duration
	steal, host int64 // machine-wide stolen and total CPU ticks
}

func markRuntime() runtimeMark {
	var m runtimeMark
	runtime.ReadMemStats(&m.ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	m.steal, m.host = cpuTicks()
	return m
}

func (d *runtimeDelta) add(from, to runtimeMark) {
	d.mallocs += int64(to.ms.Mallocs - from.ms.Mallocs)
	d.allocBytes += int64(to.ms.TotalAlloc - from.ms.TotalAlloc)
	d.gcs += int64(to.ms.NumGC - from.ms.NumGC)
	d.cpu += to.cpu - from.cpu
	d.steal += to.steal - from.steal
	d.host += to.host - from.host
}

// cpuTicks reads the machine's stolen and total CPU time from /proc/stat.
// On a virtual machine, time the hypervisor gave to other guests shows as
// steal; a run with more of it has slower wall-clock figures. It returns
// zeros where /proc/stat cannot be read.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// counters snapshots the index and retry counters of every client.
func counters(dep *deployment) (metrics.Snapshot, metrics.ResilienceSnapshot) {
	var s metrics.Snapshot
	var r metrics.ResilienceSnapshot
	for _, ix := range dep.ixs {
		a := ix.Stats()
		s.DHTLookups += a.DHTLookups
		s.RecordsMoved += a.RecordsMoved
		s.Splits += a.Splits
		s.Merges += a.Merges
		if rs := ix.ResilienceStats(); rs != nil {
			b := rs.Snapshot()
			r.Ops += b.Ops
			r.Attempts += b.Attempts
			r.Retries += b.Retries
			r.Exhausted += b.Exhausted
			r.BreakerTrips += b.BreakerTrips
		}
	}
	return s, r
}

func (p *phaseResult) addCounters(dep *deployment, s0 metrics.Snapshot, r0 metrics.ResilienceSnapshot) {
	s1, r1 := counters(dep)
	p.index.DHTLookups += s1.DHTLookups - s0.DHTLookups
	p.index.RecordsMoved += s1.RecordsMoved - s0.RecordsMoved
	p.index.Splits += s1.Splits - s0.Splits
	p.index.Merges += s1.Merges - s0.Merges
	p.retry.Ops += r1.Ops - r0.Ops
	p.retry.Attempts += r1.Attempts - r0.Attempts
	p.retry.Retries += r1.Retries - r0.Retries
	p.retry.Exhausted += r1.Exhausted - r0.Exhausted
	p.retry.BreakerTrips += r1.BreakerTrips - r0.BreakerTrips
}

// setUp builds and preloads a deployment, timing it.
func (p *phaseResult) setUp(w *workload, seed int64, traced bool, preload []spatial.Record) (*deployment, error) {
	start := time.Now()
	dep, err := deploy(w, seed, traced)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	if len(preload) > 0 {
		if err := dep.ixs[0].BulkLoad(preload); err != nil {
			_ = dep.close() // the preload error is the one to report
			return nil, fmt.Errorf("preload %s: %w", w.name, err)
		}
	}
	p.setups = append(p.setups, time.Since(start).Seconds())
	return dep, nil
}

// newModelOf returns a model that knows every record in data; with stored
// set they are all present from the start.
func newModelOf(data []spatial.Record, stored bool) *model {
	m := newModel()
	for _, r := range data {
		idx := m.add(r)
		if stored {
			m.preload(idx)
		}
	}
	return m
}

func newClients(w *workload, dep *deployment, m *model, all []spatial.Record, seed int64, stored int) []*client {
	cs := make([]*client, len(dep.ixs))
	for i, ix := range dep.ixs {
		var t *opTracer
		if dep.tracers != nil {
			t = dep.tracers[i]
		}
		cs[i] = newClient(w, ix, m, t, freshPool(all, seed, i), seed, i)
		cs[i].stored = stored
	}
	return cs
}

// finishPhase records what only the end state shows, then stops the
// deployment. The live heap is read after the benchmark's own growing
// state (latency samples, the model) is released, so that it measures the
// deployment.
func (p *phaseResult) finishPhase(dep *deployment, m *model) error {
	p.user = m.userBytes()
	p.timed.summarize()
	p.warm.summarize()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
	for _, t := range dep.tracers {
		p.agg.add(&t.agg)
	}
	if dep.tracers != nil {
		n, err := dep.storedBytes()
		if err != nil {
			return err
		}
		p.stored = n
	}
	return dep.close()
}

// runPhase sets w up, warms it up and measures it for window.
func runPhase(w *workload, seed int64, window time.Duration, traced bool, reps int) (*phaseResult, error) {
	p := &phaseResult{timed: phaseStats{timed: true}}
	if w.ingest {
		return p, p.runIngest(w, seed, window, traced, reps)
	}
	all := corpus()
	data := all[:w.preload]
	var dep *deployment
	for i := 0; i < reps; i++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if dep, err = p.setUp(w, seed, traced, data); err != nil {
			return nil, err
		}
	}
	m := newModelOf(data, true)
	cs := newClients(w, dep, m, all, seed, len(data))

	start := time.Now()
	warmUp(cs, &p.warm)
	p.warmS = time.Since(start).Seconds()

	s0, r0 := counters(dep)
	rt0 := markRuntime()
	start = time.Now()
	part := window / windows
	stats := make([]phaseStats, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		stats[i].timed = true
		wg.Add(1)
		go func(c *client, st *phaseStats) {
			defer wg.Done()
			for {
				elapsed := time.Since(start)
				if elapsed >= window {
					return
				}
				st.enter(int(elapsed / part))
				c.do(c.next(), st)
			}
		}(c, &stats[i])
	}
	wg.Wait()
	p.timedS = time.Since(start).Seconds()
	for i := range stats {
		for j := range stats[i].win {
			stats[i].win[j].dur = part
		}
	}
	p.rt.add(rt0, markRuntime())
	p.addCounters(dep, s0, r0)
	for i := range stats {
		p.timed.merge(&stats[i])
	}
	return p, p.finishPhase(dep, m)
}

// runIngest measures whole passes over the NE-sized dataset, each into a
// fresh index, for as many passes as fit in window (at least one).
func (p *phaseResult) runIngest(w *workload, seed int64, window time.Duration, traced bool, reps int) error {
	all := corpus()
	data := append([]spatial.Record(nil), all[:dataset.NESize]...)
	rand.New(rand.NewSource(seed)).Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	for i := 0; i < reps-1; i++ {
		dep, err := p.setUp(w, seed, traced, nil)
		if err != nil {
			return err
		}
		if err := dep.close(); err != nil {
			return err
		}
	}

	// Warm-up: a short pass on a throwaway index.
	start := time.Now()
	dep, err := p.setUp(w, seed, traced, nil)
	if err != nil {
		return err
	}
	m := newModelOf(data[:ingestWarmRecords], false)
	warm := newClients(w, dep, m, all, seed, 0)[0]
	warm.ingestPass(ingestWarmRecords, &p.warm)
	if err := dep.close(); err != nil {
		return err
	}
	p.warmS = time.Since(start).Seconds()

	var elapsed time.Duration
	for {
		if dep, err = p.setUp(w, seed, traced, nil); err != nil {
			return err
		}
		m = newModelOf(data, false)
		c := newClients(w, dep, m, all, seed, 0)[0]
		s0, r0 := counters(dep)
		rt0 := markRuntime()
		start := time.Now()
		c.ingestPass(len(data), &p.timed)
		elapsed += time.Since(start)
		p.rt.add(rt0, markRuntime())
		p.addCounters(dep, s0, r0)
		p.passes++
		if elapsed+elapsed/time.Duration(p.passes) > window {
			break
		}
		for _, t := range dep.tracers {
			p.agg.add(&t.agg)
		}
		if err := dep.close(); err != nil {
			return err
		}
	}
	p.timedS = elapsed.Seconds()
	return p.finishPhase(dep, m)
}
