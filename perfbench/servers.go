package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/api/client"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// Server workloads. The reference rates and the latency limit are fixed
// here so that every commit is measured against the same targets.
const (
	serverK        = 32
	lookupN        = 100_000 // lookup workload: WS vertices (deg 10)
	churnN         = 50_000  // churn and replicate workloads: WS vertices
	lookupRef      = 500.0   // lookups/s in the reference phase
	capacityShare  = 0.1     // closed-loop phase per deployment, as a share of the budget
	churnRef       = 300.0   // batches/s in the reference phase
	replicateRef   = 150.0   // batches/s in the replicate reference phase
	visibleLimitMS = 100.0   // write→visible tail limit of the churn rate search
	searchGrowth   = 1.5     // rate search climb factor
	searchRes      = 0.1     // rate search stops when the bracket is this tight
)

// refDur is the reference phase's share of the run's measurement
// budget; the rest goes to the capacity measurement or rate search.
func (b *bench) refDur(share float64) time.Duration {
	return time.Duration(share * float64(b.seconds) * float64(time.Second))
}

// searchSteps bounds the rate search's probes: about one 1 s probe per
// second of the budget left after the reference phase.
func (b *bench) searchSteps() int { return max(4, b.seconds*7/10) }

// connections is the load generator's connection budget: at most one
// per CPU, and two when the host has them.
func connections() int { return max(1, min(2, runtime.NumCPU())) }

// writeGraph generates the Watts–Strogatz input, writes it as the edge
// list spinnerd reads, and returns the path with the benchmark's own
// copy of the graph, parsed back exactly as spinnerd parses it.
func writeGraph(b *bench, n int) (string, *graph.Weighted, error) {
	path := b.path("graph.txt")
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	if err := graph.WriteEdgeList(f, gen.WattsStrogatz(n, 10, 0.2, b.seed)); err != nil {
		f.Close()
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		return "", nil, err
	}
	g, err := readGraph(path)
	if err != nil {
		return "", nil, err
	}
	return path, graph.Convert(g), nil
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f, true)
}

func (b *bench) serverArgs(in string, extra ...string) []string {
	return append([]string{"-k", strconv.Itoa(serverK), "-seed", strconv.FormatUint(b.seed, 10),
		"-workers", strconv.Itoa(runtime.NumCPU()), "-in", in}, extra...)
}

// setUp starts a deployment setupRepeats times, tearing down all but the
// last, and records the median start→healthy time, in unstolen time, as
// setup_s.
func (b *bench) setUp(start func() (time.Duration, error), teardown func()) error {
	var setups []float64
	for i := range setupRepeats {
		if i > 0 {
			teardown()
		}
		m := newStealMeter()
		d, err := start()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds()*m.unstolen())
	}
	b.e2e["setup_s"] = median(setups)
	logf("set-ups %v s", setups)
	return nil
}

func runLookup(b *bench) error {
	path, w, err := writeGraph(b, lookupN)
	if err != nil {
		return err
	}
	var srv *server
	var capRaw, capRates []float64
	err = b.setUp(func() (d time.Duration, err error) {
		srv, d, err = startServer(b.spinnerd, b.path("spinnerd.log"), b.serverArgs(path)...)
		if err != nil {
			return d, err
		}
		// Each started deployment also gets its closed-loop capacity
		// measured, outside the set-up time: the rate then takes the
		// median over several processes and several moments of the run.
		raw, rate, err := b.lookupCapacity(srv, w.NumVertices(), len(capRates))
		capRaw, capRates = append(capRaw, raw), append(capRates, rate)
		return d, err
	}, func() { srv.kill() })
	if err != nil {
		return err
	}
	defer srv.stop()
	var cls []*client.Client
	for range connections() {
		cls = append(cls, newClient(srv.base(), nil))
	}
	d := newLookupDriver(cls, nil, w.NumVertices(), b.seed)
	d.phase(lookupRef, 500*time.Millisecond) // warm-up
	before, err := scrapeMetrics(context.Background(), cls[0])
	if err != nil {
		return err
	}
	cpu0, _ := cpuSeconds(srv.cmd.Process.Pid)
	refSteal := watchSteal(b.refDur(0.6))
	ref := d.phase(lookupRef, b.refDur(0.6))
	steal := refSteal()
	cpu1, _ := cpuSeconds(srv.cmd.Process.Pid)
	after, err := scrapeMetrics(context.Background(), cls[0])
	if err != nil {
		return err
	}
	b.count(ref.lat.n(), ref.failed)
	calm := calmHalf(ref.lat, steal)
	logf("reference %s; steal by window %.3f; calm-half p50=%.2fms", ref, steal, calm.q(0.5))
	dump, err := cls[0].LookupAll(context.Background())
	if err != nil {
		return fmt.Errorf("full dump: %w", err)
	}
	b.count(1, 0)
	b.gate(checkLabels("served labels", dump.Labels, w.NumVertices(), serverK))
	b.gate(d.checkAgainst(dump.Labels))
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	e := b.e2e
	e["p50_ms"] = calm.q(0.5)
	e["rate"] = median(capRates)
	e["phi"] = metrics.Phi(w, dump.Labels)
	e["rho"] = metrics.Rho(w, dump.Labels, serverK)
	e["peak_rss_mb"] = rss
	e["ok_ratio"] = 1 - failureRatio(b.attempted, b.failed)
	if b.trace == 0 {
		return nil
	}

	l := b.layer
	loadMetrics(l, ref.lat, ref.late, nil, 0)
	l["load.capacity_qps"] = median(capRaw)
	if v, ok := histDelta(before, after, "spinner_http_request_duration_seconds", map[string]string{"route": "lookup", "status": "2xx"}, 0.99); ok {
		l["api.http_lookup_p99_us"] = v * 1e6
	}
	l["serve.cpu_us_per_op"] = (cpu1 - cpu0) * 1e6 / float64(ref.lat.n())
	return tracedLookups(b, path, ref)
}

// lookupCapacity measures the closed-loop lookup rate of srv, the i-th
// deployment started, after a warm-up, on fresh connections, and checks
// every answer against a full dump. It returns the raw rate and the
// rate per unstolen second (see stealMeter), which still falls when
// lookups wait, serialize or leave a CPU idle.
func (b *bench) lookupCapacity(srv *server, n, i int) (raw, rate float64, err error) {
	var cls []*client.Client
	for range connections() {
		cls = append(cls, newClient(srv.base(), nil))
	}
	d := newLookupDriver(cls, nil, n, b.seed+uint64(i)<<32)
	d.phase(lookupRef, 300*time.Millisecond) // warm-up
	m := newStealMeter()
	raw, attempted, failed := d.capacity(b.refDur(capacityShare))
	unstolen := m.unstolen()
	b.count(attempted, failed)
	rate = raw / unstolen
	logf("closed-loop capacity of deployment %d on %d connections: %.0f lookups/s (%d failed); %.1f%% of host CPU stolen, %.0f lookups per unstolen second",
		i+1, len(cls), raw, failed, 100*(1-unstolen), rate)
	dump, err := cls[0].LookupAll(context.Background())
	if err != nil {
		return 0, 0, fmt.Errorf("full dump: %w", err)
	}
	b.count(1, 0)
	b.gate(d.checkAgainst(dump.Labels))
	return raw, rate, nil
}

// loadMetrics records the generator's own figures for the reference
// phase and the rate search, with the phase's highest percentile that
// has at least minBeyond samples beyond it.
func loadMetrics(l map[string]float64, lat latencies, late lateness, steps []searchStep, misses int) {
	q := tailQuantile(lat.n())
	l["load.samples"] = float64(lat.n())
	l["load.p90_ms"] = lat.q(0.9)
	l["load.tail_q"] = q
	l["load.tail_ms"] = lat.q(q)
	l["load.lateness_p99_ms"] = late.p99()
	l["load.lateness_max_ms"] = late.max()
	l["load.search_steps"] = float64(len(steps))
	l["load.search_misses"] = float64(misses)
}

// tracedLookups repeats the reference phase against the same layers
// hosted in-process, with a span per client call and per handler call,
// then times the layers' public functions directly on the same keys.
func tracedLookups(b *bench, path string, untraced *phaseReport) error {
	g, err := readGraph(path)
	if err != nil {
		return err
	}
	t := newTracer()
	h, err := hostLeader(g, b.seed, "", wal.SyncNever, t)
	if err != nil {
		return err
	}
	defer h.close()
	var cls []*client.Client
	for range connections() {
		cls = append(cls, newClient(h.base(), t))
	}
	n := g.NumVertices()
	d := newLookupDriver(cls, t, n, b.seed)
	d.phase(lookupRef, 500*time.Millisecond)
	t.reset()
	ref := d.phase(lookupRef, b.refDur(0.6))
	logf("traced reference %s", ref)
	spans := t.snapshot()
	self := selfTimes(spans)
	rtt, clientSelf := spanStats(spans, self, "client.lookup")
	l := b.layer
	l["client.lookup_rtt_p50_us"] = quantile(rtt, 0.5)
	l["client.lookup_rtt_p99_us"] = quantile(rtt, 0.99)
	l["client.lookup_self_p50_us"] = quantile(clientSelf, 0.5)
	l["trace.untraced_p50_ms"] = untraced.lat.q(0.5)
	l["trace.traced_p50_ms"] = ref.lat.q(0.5)
	l["trace.overhead_ratio"] = ref.lat.q(0.5) / untraced.lat.q(0.5)
	l["trace.spans"] = float64(len(spans))
	logf("spans:\n%s", spanSummary(spans))

	keys := d.keys(20000)
	start := time.Now()
	for _, k := range keys {
		h.st.Lookup(graph.VertexID(k))
	}
	l["serve.lookup_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(keys))
	var snaps []float64
	for range 200 {
		s := time.Now()
		h.st.Snapshot()
		snaps = append(snaps, float64(time.Since(s))/1e3)
	}
	l["serve.snapshot_us"] = quantile(snaps, 0.5)

	const calls = 2000
	reqs := make([]*http.Request, calls)
	recs := make([]*httptest.ResponseRecorder, calls)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/lookup?v="+strconv.FormatInt(keys[i], 10), nil)
		recs[i] = httptest.NewRecorder()
	}
	var handler []float64
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	for i := range reqs {
		s := time.Now()
		h.mux.ServeHTTP(recs[i], reqs[i])
		handler = append(handler, float64(time.Since(s))/1e3)
	}
	runtime.ReadMemStats(&ms)
	for _, r := range recs {
		if r.Code != http.StatusOK {
			return fmt.Errorf("direct lookup handler call answered %d", r.Code)
		}
	}
	l["api.lookup_handler_p50_us"] = quantile(handler, 0.5)
	l["api.lookup_alloc_bytes"] = float64(ms.TotalAlloc-alloc0) / calls
	return t.write(b.spansPath())
}
