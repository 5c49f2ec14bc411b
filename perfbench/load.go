package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api/client"
	"repro/internal/graph"
)

// openLoop issues operations on a fixed schedule, regardless of how fast
// earlier ones complete: operation i is due at a point drawn from rng
// uniformly in [start + i/rate, start + (i+1)/rate), for dur. The draw
// keeps the schedule from locking in phase with a periodic server loop
// (the replica's journal poll, the fsync tick), which would make every
// run sample only a few fixed offsets into that period. Each of the
// workers (one per connection) takes the next operation in schedule
// order, sleeps until it is due and runs it; when every worker is busy
// the next operation waits, and that wait counts toward its latency. op(worker, i, due) runs operation i and reports whether it
// succeeded; the caller's closure times anything beyond the operation
// itself. It reports each operation's latency from its due time (a miss
// for a failure), the generator's lateness, and the failure count.
func openLoop(rate float64, dur time.Duration, workers int, rng *rand.Rand, op func(worker, i int, due time.Time) bool) *phaseReport {
	n := max(1, int(rate*dur.Seconds()))
	offset := make([]time.Duration, n)
	for i := range offset {
		offset[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	type rec struct {
		sent, done time.Duration // relative to due
		ok         bool
	}
	recs := make([]rec, n)
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(offset[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(due)
				ok := op(w, i, due)
				recs[i] = rec{sent: sent, done: time.Since(due), ok: ok}
			}
		}()
	}
	wg.Wait()
	p := &phaseReport{rate: rate}
	for _, r := range recs {
		p.late.add(r.sent)
		if r.ok {
			p.lat.add(r.done)
		} else {
			p.lat.miss()
			p.failed++
		}
	}
	p.achieved = float64(n-p.failed) / time.Since(start).Seconds()
	return p
}

// phaseReport is the outcome of one open-loop phase.
type phaseReport struct {
	rate     float64 // offered
	achieved float64 // completed operations per second of the phase
	lat      latencies
	late     lateness
	failed   int
}

func (p *phaseReport) String() string {
	q := tailQuantile(p.lat.n())
	return fmt.Sprintf("rate=%.0f/s n=%d failed=%d p50=%.2fms p%g=%.2fms late_p99=%.2fms late_max=%.2fms",
		p.rate, p.lat.n(), p.failed, p.lat.q(0.5), 100*q, p.lat.q(q), p.late.p99(), p.late.max())
}

// lookupDriver issues uniform single-key lookups, one client (and so one
// connection) per worker, and remembers every answer for the gates.
type lookupDriver struct {
	cls []*client.Client
	t   *tracer
	n   int
	rng *rand.Rand

	mu      sync.Mutex
	answers map[int64]int32 // vertex → partition answered
	wrong   error           // first malformed answer
}

func newLookupDriver(cls []*client.Client, t *tracer, n int, seed uint64) *lookupDriver {
	return &lookupDriver{cls: cls, t: t, n: n, rng: rand.New(rand.NewPCG(seed, 0x100c)),
		answers: map[int64]int32{}}
}

// keys draws the phase's uniform key sequence up front, so the key
// order depends only on the seed.
func (d *lookupDriver) keys(count int) []int64 {
	ks := make([]int64, count)
	for i := range ks {
		ks[i] = int64(d.rng.IntN(d.n))
	}
	return ks
}

// phase runs lookups at rate for dur.
func (d *lookupDriver) phase(rate float64, dur time.Duration) *phaseReport {
	keys := d.keys(max(1, int(rate*dur.Seconds())))
	return openLoop(rate, dur, len(d.cls), d.rng, func(w, i int, _ time.Time) bool {
		return d.lookup(d.cls[w], keys[i])
	})
}

// capacity runs lookups closed-loop (each connection sends its next
// lookup when the previous answer arrives) for dur and returns the
// completed lookups per second, and how many were attempted and failed.
func (d *lookupDriver) capacity(dur time.Duration) (rate float64, attempted, failed int) {
	keys := d.keys(1 << 16)
	var next, done, bad atomic.Int64
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range d.cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if d.lookup(c, keys[int(next.Add(1))%len(keys)]) {
					done.Add(1)
				} else {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	ok := int(done.Load())
	return float64(ok) / time.Since(start).Seconds(), ok + int(bad.Load()), int(bad.Load())
}

func (d *lookupDriver) lookup(c *client.Client, v int64) bool {
	s := d.t.begin("client.lookup", 0, 0)
	resp, err := c.Lookup(withSpan(context.Background(), s), v)
	d.t.finish(s)
	if err != nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if resp.Vertex != v && d.wrong == nil {
		d.wrong = fmt.Errorf("lookup of vertex %d answered for vertex %d", v, resp.Vertex)
	}
	if prev, ok := d.answers[v]; ok && prev != resp.Partition && d.wrong == nil {
		d.wrong = fmt.Errorf("vertex %d answered partition %d, then %d, with no writes", v, prev, resp.Partition)
	}
	d.answers[v] = resp.Partition
	return true
}

// checkAgainst verifies every answered lookup against the full dump.
func (d *lookupDriver) checkAgainst(labels []int32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wrong != nil {
		return d.wrong
	}
	for v, p := range d.answers {
		if int(v) >= len(labels) || labels[v] != p {
			return fmt.Errorf("lookup of vertex %d answered partition %d; the full dump says otherwise", v, p)
		}
	}
	return nil
}

// marker is an accepted batch that appended vertex id; due is when the
// batch was scheduled.
type marker struct {
	id  int
	due time.Time
}

// churnDriver issues open-loop mutation batches on one connection: 16
// valid random edge additions, one batch in four also appending a marker
// vertex, followed by one lookup on the same connection. It keeps its
// own copy of the graph with every accepted batch applied.
type churnDriver struct {
	c    *client.Client
	t    *tracer
	g    *graph.Weighted
	rng  *rand.Rand
	base int   // vertices before the first batch, all served from the start
	errs error // first invalid batch produced by the generator

	markers []marker
	logFull int   // 429 log_full answers
	batches int   // accepted batches
	opErr   error // first failed request, for the log
}

const (
	batchEdges  = 16
	markerEvery = 4
)

func newChurnDriver(c *client.Client, t *tracer, g *graph.Weighted, seed uint64) *churnDriver {
	return &churnDriver{c: c, t: t, g: g, rng: rand.New(rand.NewPCG(seed, 0xc4a2)), base: g.NumVertices()}
}

// nextBatch builds one batch over the current vertex set: the wire text
// and the same mutation for the local copy. Endpoints are distinct and
// in range, so every op is valid.
func (d *churnDriver) nextBatch(withMarker bool) (string, *graph.Mutation) {
	n := d.g.NumVertices()
	mut := &graph.Mutation{}
	var sb strings.Builder
	first := 0
	if withMarker {
		sb.WriteString("v 1\n")
		mut.NewVertices = 1
		u := d.rng.IntN(n)
		fmt.Fprintf(&sb, "+ %d %d\n", n, u)
		mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: graph.VertexID(n), V: graph.VertexID(u), Weight: 2})
		first = 1
	}
	for range batchEdges - first {
		u := d.rng.IntN(n)
		v := d.rng.IntN(n - 1)
		if v >= u {
			v++
		}
		fmt.Fprintf(&sb, "+ %d %d\n", u, v)
		mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: graph.VertexID(u), V: graph.VertexID(v), Weight: 2})
	}
	return sb.String(), mut
}

// burst submits count batches back to back on its one connection
// (a closed loop: each waits for the previous answer) and returns when
// it sent the first one. A batch refused with 429 log_full is retried
// after 1ms: the burst measures how fast the system absorbs writes, so
// backpressure slows it rather than failing it. Every fourth batch and
// the last carry a marker. It returns the first error other than
// backpressure.
func (d *churnDriver) burst(count int) (time.Time, error) {
	start := time.Now()
	for i := range count {
		withMarker := i%markerEvery == 0 || i == count-1
		ops, mut := d.nextBatch(withMarker)
		for {
			_, err := d.c.Mutate(context.Background(), ops)
			if errors.Is(err, client.ErrLogFull) {
				d.logFull++
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				return start, fmt.Errorf("burst batch %d: %w", i, err)
			}
			break
		}
		if _, err := mut.Apply(d.g); err != nil && d.errs == nil {
			d.errs = fmt.Errorf("generator produced an invalid batch: %w", err)
		}
		d.batches++
		if withMarker {
			d.markers = append(d.markers, marker{id: d.g.NumVertices() - 1, due: time.Now()})
		}
	}
	return start, nil
}

// churnPhase is one open-loop phase of batches.
type churnPhase struct {
	*phaseReport           // per-batch mutate latency from the due time
	lookups      latencies // the lookup after each batch, from the same due time
	markers      []marker  // accepted marker batches of this phase
	start, end   time.Time // the phase's wall-clock window
}

// phase issues batches at rate for dur on its one connection.
func (d *churnDriver) phase(rate float64, dur time.Duration) *churnPhase {
	ph := &churnPhase{start: time.Now()}
	first := len(d.markers)
	ph.phaseReport = openLoop(rate, dur, 1, d.rng, func(_, i int, due time.Time) bool {
		ok := d.batch(i%markerEvery == 0, due)
		if !d.lookupAfter(due, &ph.lookups) {
			ok = false
		}
		return ok
	})
	ph.end = time.Now()
	ph.markers = d.markers[first:]
	return ph
}

// logFullRetry is how long past its due time a batch refused with 429
// log_full is retried before it counts as failed.
const logFullRetry = 5 * time.Second

// batch submits one batch; on acceptance it is applied to the local copy
// and, for a marker batch, the marker is recorded. A batch refused with
// 429 log_full (backpressure: the mutation log is momentarily full) is
// retried after 1ms, as a client honouring the refusal would, so the
// wait shows in its latency; each refusal is counted in logFull.
func (d *churnDriver) batch(withMarker bool, due time.Time) bool {
	ops, mut := d.nextBatch(withMarker)
	for {
		s := d.t.begin("client.mutate", 0, 0)
		_, err := d.c.Mutate(withSpan(context.Background(), s), ops)
		d.t.finish(s)
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrLogFull) {
			d.noteErr(err)
			return false
		}
		d.logFull++
		if time.Since(due) > logFullRetry {
			d.noteErr(err)
			return false
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := mut.Apply(d.g); err != nil && d.errs == nil {
		d.errs = fmt.Errorf("generator produced an invalid batch: %w", err)
	}
	d.batches++
	if withMarker {
		d.markers = append(d.markers, marker{id: d.g.NumVertices() - 1, due: due})
	}
	return true
}

// noteErr keeps the first failed request's error for the log.
func (d *churnDriver) noteErr(err error) {
	if d.opErr == nil {
		d.opErr = err
	}
}

// lookupAfter looks up a uniform vertex of the base graph. A vertex an
// accepted batch appended may not be applied yet (acceptance only
// enqueues the batch), and its lookup would rightly answer 404.
func (d *churnDriver) lookupAfter(due time.Time, into *latencies) bool {
	v := int64(d.rng.IntN(d.base))
	s := d.t.begin("client.lookup", 0, 0)
	_, err := d.c.Lookup(withSpan(context.Background(), s), v)
	d.t.finish(s)
	if err != nil {
		d.noteErr(err)
		into.miss()
		return false
	}
	into.add(time.Since(due))
	return true
}

// feedEvent is one delta received on the watch stream.
type feedEvent struct {
	at           time.Time
	seq          uint64
	n            int // vertex count after this delta (running maximum)
	cross, total int64
}

// feed mirrors the store's labels from /v1/watch and timestamps every
// delta, so marker visibility and locality can be read off it later.
type feed struct {
	c      *client.Client
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	events []feedEvent
	labels []int32
	seq    uint64
	n      int
	err    error
}

// startFeed subscribes from the beginning of the change feed (the
// baseline full-label delta) and applies every delta in the background.
func startFeed(c *client.Client) (*feed, error) {
	ctx, cancel := context.WithCancel(context.Background())
	w, err := c.Watch(ctx, 0)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch: %w", err)
	}
	f := &feed{c: c, cancel: cancel, done: make(chan struct{})}
	go f.run(ctx, w)
	return f, nil
}

func (f *feed) run(ctx context.Context, w *client.Watcher) {
	defer close(f.done)
	defer w.Close()
	for {
		ev, err := w.Recv()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Falling behind the ring (ErrCompacted) is an error too: the
			// feed must rebuild every label from the baseline delta, so
			// it never resyncs from a full dump.
			f.mu.Lock()
			f.err = err
			f.mu.Unlock()
			return
		}
		if ev.Delta == nil {
			continue
		}
		d := ev.Delta
		now := time.Now()
		f.mu.Lock()
		f.labels, err = d.Apply(f.labels)
		f.seq = d.Seq
		f.n = max(f.n, d.N, len(f.labels))
		f.events = append(f.events, feedEvent{at: now, seq: d.Seq, n: f.n, cross: d.Cross, total: d.Total})
		if err != nil && f.err == nil {
			f.err = err
		}
		f.mu.Unlock()
	}
}

// stop ends the stream and waits for the reader to exit.
func (f *feed) stop() {
	f.cancel()
	<-f.done
}

// state returns the feed's position, vertex count and first error.
func (f *feed) state() (seq uint64, n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq, f.n, f.err
}

// lastEventAt is the arrival time of the newest delta.
func (f *feed) lastEventAt() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.events) == 0 {
		return time.Time{}
	}
	return f.events[len(f.events)-1].at
}

// waitIdle returns once no delta has arrived for quiet, or after limit.
func (f *feed) waitIdle(quiet, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if time.Since(f.lastEventAt()) >= quiet {
			return
		}
		time.Sleep(quiet / 4)
	}
}

// waitN returns once the feed has covered n vertices, or after limit.
func (f *feed) waitN(n int, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if _, have, _ := f.state(); have >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// coveredAt is the arrival time of the first delta covering vertex id.
func (f *feed) coveredAt(id int) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.events {
		if e.n > id {
			return e.at, true
		}
	}
	return time.Time{}, false
}

// visible returns, per marker, the time from its batch's due time to the
// arrival of the first delta whose vertex count covers it; markers never
// covered are misses.
func (f *feed) visible(ms []marker) (lat latencies, unseen int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := 0
	for _, m := range ms {
		for j < len(f.events) && f.events[j].n <= m.id {
			j++
		}
		if j == len(f.events) {
			lat.miss()
			unseen++
			continue
		}
		lat.add(f.events[j].at.Sub(m.due))
	}
	return lat, unseen
}

// phi is the time-average of 1 − Cross/Total over [from, to): each
// delta's locality weighted by how long it was the newest.
func (f *feed) phi(from, to time.Time) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return timeAveragePhi(f.events, from, to)
}

func timeAveragePhi(evs []feedEvent, from, to time.Time) float64 {
	var sum, span float64
	cur, at := -1.0, from
	for _, e := range evs {
		if e.total <= 0 {
			continue
		}
		if !e.at.Before(to) {
			break
		}
		if e.at.After(at) {
			if cur >= 0 {
				d := e.at.Sub(at).Seconds()
				sum += cur * d
				span += d
			}
			at = e.at
		}
		cur = 1 - float64(e.cross)/float64(e.total)
	}
	if cur >= 0 && to.After(at) {
		d := to.Sub(at).Seconds()
		sum += cur * d
		span += d
	}
	if span == 0 {
		return cur
	}
	return sum / span
}

// converged waits until the labels rebuilt from the feed can be compared
// with a full dump taken at the same feed position, and compares them.
// Background restabilization may still publish, so it retries until
// limit.
func (f *feed) converged(c *client.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	var last error
	for time.Now().Before(deadline) {
		f.waitIdle(200*time.Millisecond, time.Until(deadline))
		dump, err := c.LookupAll(context.Background())
		if err != nil {
			return fmt.Errorf("full dump: %w", err)
		}
		for wait := time.Now().Add(time.Second); time.Now().Before(wait); time.Sleep(2 * time.Millisecond) {
			if seq, _, _ := f.state(); seq >= dump.FromSeq {
				break
			}
		}
		f.mu.Lock()
		seq, ferr := f.seq, f.err
		labels := append([]int32(nil), f.labels...)
		f.mu.Unlock()
		if ferr != nil {
			return fmt.Errorf("watch stream: %w", ferr)
		}
		if seq != dump.FromSeq {
			last = fmt.Errorf("feed at seq %d, dump at seq %d", seq, dump.FromSeq)
			continue
		}
		if last = checkSameLabels("labels rebuilt from /v1/watch vs /v1/lookup", labels, dump.Labels); last == nil {
			return nil
		}
	}
	return last
}
