// Command perfbench is the repository's benchmark. It runs one workload
// against the m-LIGHT stack, checks every answer against an in-benchmark
// model of the stored records, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) as the last line of its
// output:
//
//	go run . --workload query-sim --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads and the definition of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"mlight/internal/dataset"
	"mlight/internal/transport"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: ingest-sim, query-sim or mixed-tcp")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "length of the timed phase")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	window := time.Duration(*seconds) * time.Second

	var res result
	var phases map[string]any
	var err error
	if *traced == 0 {
		res, phases, err = untracedRun(&w, *seed, window)
	} else {
		res, phases, err = tracedRun(&w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	prov := map[string]any{
		"provenance": provenance(*seed),
		"workload":   describe(&w, *seconds, *traced),
		"phases":     phases,
	}
	if err := printJSON(prov); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func describe(w *workload, seconds, traced int) map[string]any {
	mix := map[string]float64{}
	for k, v := range w.mix {
		if v > 0 {
			mix[opNames[k]] = v
		}
	}
	d := map[string]any{
		"name": w.name, "seconds": seconds, "trace": traced, "clients": w.clients, "writers": min(writers, w.clients),
		"preload": w.preload, "mix": mix, "range_spans": w.spans, "knn_k": knnK,
	}
	if w.tcp {
		d["deployment"] = fmt.Sprintf("%d daemons on loopback TCP, chord, replication %d", tcpDaemons, tcpReplication)
	} else {
		d["deployment"] = fmt.Sprintf("%d-peer chord ring on zero-latency simnet, ByteDHT", simPeers)
	}
	if w.ingest {
		d["ingest_records_per_pass"] = dataset.NESize
		d["read_every"] = w.readEvery
	}
	return d
}

// describePhase reports how long a phase's parts ran and what its ops did.
func describePhase(p *phaseResult) map[string]any {
	counts := map[string]any{}
	for k := opKind(0); k < numOps; k++ {
		counts[opNames[k]] = map[string]any{
			"timed": p.timed.done[k], "min_per_window": p.timed.sum[k].minPerWindow, "attempted": p.timed.attempted[k] + p.warm.attempted[k],
			"errored": p.timed.errored[k] + p.warm.errored[k], "wrong": p.timed.wrong[k] + p.warm.wrong[k],
			"p95_us": p.timed.sum[k].p95, "p99_us": p.timed.sum[k].p99,
		}
	}
	d := map[string]any{
		"setup_s": p.setups, "warmup_s": p.warmS, "timed_s": p.timedS, "ops": counts,
		"ops_per_s": p.timed.opsPerS,
		"index": map[string]int64{
			"lookups": p.index.DHTLookups, "moved": p.index.RecordsMoved,
			"splits": p.index.Splits, "merges": p.index.Merges,
		},
	}
	if p.passes > 0 {
		d["passes"] = p.passes
	}
	if p.rt.host > 0 {
		d["cpu_steal_ratio"] = float64(p.rt.steal) / float64(p.rt.host)
	}
	if err := firstErr([]error{p.warm.firstErr, p.timed.firstErr}); err != nil {
		d["first_failure"] = err.Error()
	}
	return d
}

// outcome folds the warm-up and timed ops of the phases into the result's
// counts; any wrong answer makes the run incorrect.
func outcome(ps ...*phaseResult) result {
	r := result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range ps {
		for _, st := range []*phaseStats{&p.warm, &p.timed} {
			a, f, wrong, _ := st.total()
			r.Attempted += a
			r.Failed += f
			if wrong > 0 {
				r.Correct = false
			}
		}
	}
	return r
}

func untracedRun(w *workload, seed int64, window time.Duration) (result, map[string]any, error) {
	p, err := runPhase(w, seed, window, false, setupReps)
	if err != nil {
		return result{}, nil, err
	}
	r := outcome(p)
	m := r.Metrics
	m["setup_s"] = metric{median(p.setups), "s"}
	for _, k := range []opKind{opInsert, opRange, opKNN, opPoint} {
		m[opNames[k]+".p50_us"] = metric{p.timed.sum[k].p50, "us"}
	}
	ins, rng := float64(p.timed.done[opInsert]), float64(p.timed.done[opRange])
	m["insert.lookups_per_op"] = metric{float64(p.timed.lookups[opInsert]) / ins, "lookups"}
	m["insert.moved_per_op"] = metric{float64(p.timed.moved[opInsert]) / ins, "records"}
	m["range.lookups_per_op"] = metric{float64(p.timed.lookups[opRange]) / rng, "lookups"}
	m["range.rounds_per_op"] = metric{float64(p.timed.rounds[opRange]) / rng, "rounds"}
	m["ok_ratio"] = metric{float64(r.Attempted-r.Failed) / float64(r.Attempted), "ratio"}
	m["heap_live_mib"] = metric{p.heapMiB, "MiB"}
	return r, map[string]any{"untraced": describePhase(p)}, nil
}

// tracedRun spends half the window on an untraced phase, for the runtime
// costs and the tracing overhead, and half on a traced one.
func tracedRun(w *workload, seed int64, window time.Duration) (result, map[string]any, error) {
	u, err := runPhase(w, seed, window/2, false, 1)
	if err != nil {
		return result{}, nil, err
	}
	t, err := runPhase(w, seed, window/2, true, 1)
	if err != nil {
		return result{}, nil, err
	}
	echo, err := echoFloor(2000)
	if err != nil {
		return result{}, nil, err
	}
	r := outcome(u, t)
	layerMetrics(r.Metrics, u, t, echo)
	traced := describePhase(t)
	traced["rpc_breakdown"] = rpcBreakdown(&t.agg, echo)
	return r, map[string]any{"untraced": describePhase(u), "traced": traced}, nil
}

// rpcBreakdown splits each op kind's overlay RPCs by request type: calls
// per op, and per call the client-side call time, the owner's handler time
// and the framed-echo floor.
func rpcBreakdown(a *traceAgg, echoUS float64) map[string]any {
	out := map[string]any{"echo_us": echoUS}
	for k := opKind(0); k < numOps; k++ {
		if a.ops[k] == 0 {
			continue
		}
		reqs := map[string]any{}
		for r := uint8(0); r < numReqs; r++ {
			n := a.kindCallN[k][r]
			if n == 0 {
				continue
			}
			reqs[reqNames[r]] = map[string]float64{
				"calls_per_op": float64(n) / float64(a.ops[k]),
				"call_us":      float64(a.kindCallNS[k][r]) / 1e3 / float64(n),
				"handler_us":   float64(a.kindHandleNS[k][r]) / 1e3 / float64(n),
			}
		}
		out[opNames[k]] = map[string]any{"op_us": float64(a.opNS[k]) / 1e3 / float64(a.ops[k]), "rpcs": reqs}
	}
	return out
}

// layerMetrics computes the per-layer metrics: runtime costs from the
// untraced phase u, everything else from the traced phase t.
func layerMetrics(m map[string]metric, u, t *phaseResult, echoUS float64) {
	a := &t.agg
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	var ops, callN, chordOps int64
	for k := range a.ops {
		ops += a.ops[k]
	}
	for _, n := range a.callN {
		callN += n
	}
	for _, n := range a.chordN {
		chordOps += n
	}
	per := func(n, d int64) float64 { return float64(n) / float64(d) }
	us := func(ns, d int64) float64 { return float64(ns) / 1e3 / float64(d) }

	for k := opKind(0); k < numOps; k++ {
		op := opNames[k]
		put("core.self_us."+op, us(a.selfNS[k][lCore], a.ops[k]), "us")
		put("core.dht_calls."+op, per(a.dhtCalls[k], a.ops[k]), "calls")
		put("wire.unmarshal_us."+op, us(a.codecNS[k][cUnmarshal], a.ops[k]), "us")
		put("wire.marshal_us."+op, us(a.codecNS[k][cMarshal], a.ops[k]), "us")
		shares := map[string]int64{
			"core":      a.selfNS[k][lCore],
			"wire":      a.selfNS[k][lWire] + a.selfNS[k][lCodec],
			"chord":     a.selfNS[k][lChord],
			"transport": a.selfNS[k][lTransport],
			"owner":     a.selfNS[k][lOwner],
		}
		for l, ns := range shares {
			put("share."+l+"."+op, per(ns, a.opNS[k]), "ratio")
		}
	}
	put("core.probe_hit_ratio", per(a.probeHits, a.probes), "ratio")
	put("core.probes_per_round", per(a.queryProbes, a.queryRounds), "probes")
	put("core.scan_ratio", per(a.scanReturned, a.scanFetched), "ratio")
	put("core.splits_per_kop", per(1000*t.index.Splits, ops), "splits")
	put("core.merges_per_kop", per(1000*t.index.Merges, ops), "merges")

	put("dht.attempts_per_call", per(t.retry.Attempts, t.retry.Ops), "attempts")
	put("dht.retries", float64(t.retry.Retries), "count")
	put("dht.exhausted", float64(t.retry.Exhausted), "count")
	put("dht.breaker_trips", float64(t.retry.BreakerTrips), "count")

	put("wire.unmarshal_calls_per_op", per(a.codecCalls[cUnmarshal], ops), "calls")
	put("wire.marshal_calls_per_op", per(a.codecCalls[cMarshal], ops), "calls")
	put("wire.bytes_decoded_per_op", per(a.codecBytes[cUnmarshal], ops), "B")
	put("wire.bytes_encoded_per_op", per(a.codecBytes[cMarshal], ops), "B")
	put("wire.stored_bytes_per_user_byte", per(t.stored, t.user), "ratio")

	for _, x := range []struct {
		name string
		tag  uint8
	}{{"get", mGet}, {"apply", mApply}, {"put", mPut}, {"remove", mRemove}} {
		put("chord.op_us."+x.name, us(a.chordNS[x.tag], a.chordN[x.tag]), "us")
	}
	put("chord.route_hops", per(a.callN[rLookupStep], chordOps), "hops")
	put("chord.rpcs_per_op", per(callN, chordOps), "rpcs")
	for _, r := range []uint8{rRetrieve, rStore, rApply, rRemove} {
		put("chord.owner_us."+reqNames[r], us(a.ownerSelfNS[r], a.ownerN[r]), "us")
	}

	for r := uint8(0); r < numReqs; r++ {
		name := reqNames[r]
		call := us(a.callNS[r], a.callN[r])
		put("transport.calls."+name, per(a.callN[r], ops), "calls")
		put("transport.call_us."+name, call, "us")
		put("transport.overhead_us."+name, call-us(a.handlerNS[r], a.ownerN[r]), "us")
	}
	put("transport.echo_us", echoUS, "us")
	put("transport.errors_per_kcall", per(1000*a.callErr, callN), "errors")
	put("transport.cas_calls_per_apply", per(a.callN[rGetVer]+a.callN[rCAS], a.chordN[mApply]), "calls")

	_, _, _, done := u.timed.total()
	put("runtime.allocs_per_op", per(u.rt.mallocs, int64(done)), "allocs")
	put("runtime.alloc_bytes_per_op", per(u.rt.allocBytes, int64(done)), "B")
	put("runtime.gc_per_kop", per(1000*u.rt.gcs, int64(done)), "cycles")
	put("runtime.cpu_us_per_op", us(u.rt.cpu.Nanoseconds(), int64(done)), "us")

	_, _, _, tdone := t.timed.total()
	put("trace.overhead_ratio", (float64(tdone)/t.timedS)/(float64(done)/u.timedS), "ratio")
}

// echoReq is the payload of the framed-echo floor measurement.
type echoReq struct{ N int }

func init() { transport.RegisterType(echoReq{}) }

// echoFloor times n raw framed echo round trips over loopback TCP on one
// pooled connection and returns the median in µs: the floor under every
// overlay RPC on the TCP deployment.
func echoFloor(n int) (float64, error) {
	tr := transport.NewTCP(transport.TCPOptions{})
	defer tr.Close()
	id, err := tr.Reserve()
	if err != nil {
		return 0, fmt.Errorf("echo: %w", err)
	}
	err = tr.Register(id, transport.HandlerFunc(func(_ transport.NodeID, req any) (any, error) { return req, nil }))
	if err != nil {
		return 0, fmt.Errorf("echo: %w", err)
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := tr.Call("perfbench", id, echoReq{N: i}); err != nil {
			return 0, fmt.Errorf("echo: %w", err)
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return quantile(lat, 0.5), nil
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
