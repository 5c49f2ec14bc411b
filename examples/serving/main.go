// Live serving over the versioned HTTP API: maintain a partitioning
// under concurrent traffic, the production scenario behind §III-D/E of
// the paper — this time through the wire protocol a real deployment
// would use.
//
// A social graph is partitioned once and served from a 4-way sharded
// durable store behind the /v1 HTTP API (internal/api) on a loopback
// listener. Everything below talks to it through the typed client
// (internal/api/client): reader goroutines resolve vertex→partition
// lookups with GET /v1/lookup, a change-feed consumer tails GET
// /v1/watch and maintains its own label map purely from delta frames,
// and the writer submits growth batches with POST /v1/mutate. When the
// cut degrades, the store restabilizes in the background; an elastic
// POST /v1/resize to k+2 migrates only the paper's n/(k+n) fraction.
// At the end the feed consumer's reconstructed labels are checked
// against GET /v1/lookup truth, and the store is closed and reopened
// from disk: the maintained partitioning — and the change feed's
// incremental checkpoints — survive process death.
//
//	go run ./examples/serving
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

func main() {
	const k = 8
	g := gen.Load(gen.LiveJournalLike, 10000, 21)
	opts := core.DefaultOptions(k)
	opts.Seed = 21
	opts.MaxIterations = 40

	dir, err := os.MkdirTemp("", "spinner-serving-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{Options: opts, DegradeFactor: 1.05, Shards: 4}
	fmt.Printf("bootstrapping: %d vertices into %d partitions (4 store shards, journal+checkpoints in %s)...\n",
		g.NumVertices(), k, dir)
	st, err := serve.BootstrapDurable(dir, g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// Serve the /v1 API on a loopback port and talk to it like a client.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	as := api.NewServer(st, nil)
	as.Heartbeat = 50 * time.Millisecond
	httpSrv := &http.Server{Handler: as.Mux()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	cli := client.New("http://" + ln.Addr().String())
	fmt.Printf("serving /v1 on %s: %s\n\n", ln.Addr(), line(st.Summary()))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Readers: sustained GET /v1/lookup against whatever snapshot is live.
	var stop atomic.Bool
	var served atomic.Int64
	var readers sync.WaitGroup
	n := int64(st.Summary().Vertices) // growth batches add edges only
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			v := int64(r)
			for !stop.Load() {
				if _, err := cli.Lookup(ctx, v); err == nil {
					served.Add(1)
				}
				v = (v + 37) % n
			}
		}(r)
	}

	// Change-feed consumer: tail GET /v1/watch from sequence 0 and
	// maintain a label map purely from delta frames — the router/cache
	// pattern the feed exists for. On a compacted cursor it resyncs via
	// the GET /v1/lookup dump, the documented 410 recovery.
	feed := &feedState{}
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		feed.follow(ctx, cli)
	}()

	// Writer: the graph grows ~1% per batch through POST /v1/mutate;
	// triadic-closure-biased edges erode locality until the 5%
	// degradation trigger fires.
	shadow := graph.Convert(g)
	start := time.Now()
	for batch := 0; batch < 12; batch++ {
		mut := gen.GrowthBatch(shadow, 0.01, uint64(300+batch))
		if _, err := mut.Apply(shadow); err != nil {
			log.Fatal(err)
		}
		if _, err := cli.Mutate(ctx, mutationText(mut.NewEdges)); err != nil {
			log.Fatal(err)
		}
	}
	if err := st.Quiesce(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 12 growth batches over POST /v1/mutate (%.0fms): %s\n",
		time.Since(start).Seconds()*1000, line(st.Summary()))

	// Elastic scale-out: k -> k+2 machines, incremental migration only.
	before := st.Snapshot().Labels
	fmt.Printf("\nscaling out to %d partitions (POST /v1/resize)...\n", k+2)
	if _, err := cli.Resize(ctx, k+2); err != nil {
		log.Fatal(err)
	}
	if err := st.Quiesce(); err != nil {
		log.Fatal(err)
	}
	after := st.Snapshot()
	moved := 0
	for v := range before {
		if before[v] != after.Labels[v] {
			moved++
		}
	}
	fmt.Printf("after elastic repair: %s\n", line(after.Summary))
	fmt.Printf("  moved %.1f%% of vertices (from-scratch would reshuffle nearly all)\n",
		100*float64(moved)/float64(len(before)))

	stop.Store(true)
	readers.Wait()

	// The consumer must converge on exactly the labels lookup serves.
	deadline := time.Now().Add(10 * time.Second)
	_, next := st.DeltaBounds()
	for feed.cursor() < next-1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	truth, err := cli.LookupAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	feedLabels := feed.labelsCopy()
	same := len(feedLabels) == len(truth.Labels)
	for v := 0; same && v < len(truth.Labels); v++ {
		same = feedLabels[v] == truth.Labels[v]
	}
	stats, err := cli.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserved %d lookups throughout; /v1/watch consumer applied %d deltas (retention [%d,%d))\n",
		served.Load(), feed.applied.Load(), stats.DeltaFloor, stats.DeltaNext)
	fmt.Printf("  feed-reconstructed labels identical to /v1/lookup truth: %v\n", same)
	fmt.Printf("  counters: %v\n", st.Counters().Snapshot())
	cancel()
	consumer.Wait()

	// Durability payoff: close (final checkpoint) and recover from disk.
	// The maintained partitioning — including the elastic resize and every
	// journaled growth batch — comes back without re-partitioning.
	want := st.Snapshot()
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreopening from %s...\n", dir)
	rec, err := serve.Open(dir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer rec.Close()
	got := rec.Snapshot()
	same = got.K == want.K && len(got.Labels) == len(want.Labels)
	for v := 0; same && v < len(want.Labels); v++ {
		same = got.Labels[v] == want.Labels[v]
	}
	fmt.Printf("recovered: %s\n  labels bit-identical to pre-shutdown state: %v (replayed %d journal records)\n",
		line(got.Summary), same, rec.Counters().ReplayedRecords.Load())
}

// feedState is the watch consumer's view: a label map reconstructed
// purely from delta frames, plus the cursor of the last applied delta.
type feedState struct {
	mu      sync.Mutex
	labels  []int32
	seq     uint64
	applied atomic.Int64
}

func (f *feedState) cursor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

func (f *feedState) labelsCopy() []int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int32(nil), f.labels...)
}

// follow tails the change feed until ctx cancels, reconnecting on
// stream end and full-resyncing on a compacted cursor.
func (f *feedState) follow(ctx context.Context, cli *client.Client) {
	for ctx.Err() == nil {
		w, err := cli.Watch(ctx, f.cursor())
		if errors.Is(err, client.ErrCompacted) {
			all, aerr := cli.LookupAll(ctx)
			if aerr != nil {
				return
			}
			f.mu.Lock()
			f.labels = append(f.labels[:0], all.Labels...)
			f.seq = all.FromSeq
			f.mu.Unlock()
			continue
		}
		if err != nil {
			return
		}
		for {
			ev, rerr := w.Recv()
			if rerr != nil {
				w.Close()
				if errors.Is(rerr, io.EOF) {
					break // reconnect
				}
				return
			}
			if ev.Delta == nil {
				continue
			}
			f.mu.Lock()
			f.labels, err = ev.Delta.Apply(f.labels)
			f.seq = ev.Delta.Seq
			f.mu.Unlock()
			if err != nil {
				return
			}
			f.applied.Add(1)
		}
	}
}

// mutationText renders added edges in the line protocol POST /v1/mutate
// speaks ("+ u v w").
func mutationText(edges []graph.WeightedEdgeRecord) string {
	var sb strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&sb, "+ %d %d %d\n", e.U, e.V, e.Weight)
	}
	return sb.String()
}

func line(s serve.Summary) string {
	return fmt.Sprintf("snapshot v%d: %d vertices, k=%d, cut=%.4f, restab epoch %d",
		s.Version, s.Vertices, s.K, s.CutRatio, s.Epoch)
}
