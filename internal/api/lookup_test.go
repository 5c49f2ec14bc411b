package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// ringStore serves a ring of n vertices cut into k contiguous blocks. It
// skips the partitioner, so large stores build in milliseconds.
func ringStore(tb testing.TB, n, k int) *serve.Store {
	tb.Helper()
	w := graph.NewWeighted(n)
	labels := make([]int32, n)
	for v := 0; v < n; v++ {
		w.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n), 1)
		labels[v] = int32(v * k / n)
	}
	st, err := serve.New(w, labels, serve.Config{Options: testOpts(k)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return st
}

// lookupBytesPerRequest serves calls single-key lookups through the mux
// and returns the bytes allocated per request.
func lookupBytesPerRequest(t *testing.T, mux http.Handler, n int) float64 {
	t.Helper()
	const calls = 500
	reqs := make([]*http.Request, calls)
	recs := make([]*httptest.ResponseRecorder, calls)
	for i := range reqs {
		v := (i * 7919) % n
		reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/lookup?v="+strconv.Itoa(v), nil)
		recs[i] = httptest.NewRecorder()
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := range reqs {
		mux.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&ms)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("lookup answered %d: %s", rec.Code, rec.Body)
		}
	}
	return float64(ms.TotalAlloc-before) / calls
}

// A single-key lookup costs the same whatever the graph size: the handler
// reads one shard snapshot and copies no label array.
func TestLookupBytesIndependentOfN(t *testing.T) {
	small := lookupBytesPerRequest(t, NewServer(ringStore(t, 1_000, 8), nil).Mux(), 1_000)
	large := lookupBytesPerRequest(t, NewServer(ringStore(t, 100_000, 8), nil).Mux(), 100_000)
	t.Logf("bytes/request: n=1k %.0f, n=100k %.0f", small, large)
	if large > 2*small+1024 || large > 8<<10 {
		t.Fatalf("lookup allocates %.0f B/request at n=100k vs %.0f B at n=1k: grows with n", large, small)
	}
}

// growthBatch appends two vertices and wires both, plus a few extra
// edges, into the low vertex ids [0, 150). Piling weight onto the low ids
// makes the first shard publish far more often than the others and
// drags the shard boundaries toward it at each rebalance, so vertices
// change owner between lookups.
func growthBatch(n int, step int) *graph.Mutation {
	a, b := graph.VertexID(n), graph.VertexID(n+1)
	u := graph.VertexID((step * 131) % 150)
	m := &graph.Mutation{NewVertices: 2, NewEdges: []graph.WeightedEdgeRecord{
		{U: a, V: u, Weight: 2}, {U: b, V: a, Weight: 2}, {U: b, V: (u + 17) % 150, Weight: 2},
	}}
	for i := 0; i < 6; i++ {
		x := graph.VertexID((step*37 + i*101) % 150)
		y := graph.VertexID((step*53 + i*211 + 1) % 150)
		if x != y {
			m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{U: x, V: y, Weight: 2})
		}
	}
	return m
}

// Every /v1/lookup response is read from one shard snapshot, while growth
// batches, shard rebalances, a resize 4→8 and the forced restabilization
// that follows it run underneath:
//   - 0 ≤ partition < k;
//   - per reader and vertex, version never decreases;
//   - equal (vertex, version) ⇒ equal partition and k, across all readers.
func TestLookupResponsesConsistent(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st, err := serve.Bootstrap(gen.WattsStrogatz(600, 8, 0.2, 7), serve.Config{
				Options: testOpts(4), Shards: shards, ReconcileEvery: 4,
				DegradeFactor: 1.01, DegradeSlack: 0.0001,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			mux := NewServer(st, nil).Mux()

			type key struct {
				v       int64
				version uint64
			}
			type answer struct {
				part int32
				k    int
			}
			var (
				mu      sync.Mutex
				seen    = map[key]answer{}
				stop    atomic.Bool
				wg      sync.WaitGroup
				bad     atomic.Int64
				ks      [9]atomic.Int64
				firstEr atomic.Pointer[string]
			)
			fail := func(format string, args ...any) {
				msg := fmt.Sprintf(format, args...)
				firstEr.CompareAndSwap(nil, &msg)
				bad.Add(1)
			}
			const span = 700 // original vertices plus the appended tail
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					last := make([]uint64, span)
					v := int64(r)
					for !stop.Load() {
						v = (v + 7) % span
						rec := httptest.NewRecorder()
						mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/lookup?v="+strconv.FormatInt(v, 10), nil))
						if rec.Code == http.StatusNotFound && v >= 600 {
							continue // appended vertex not published yet
						}
						var got LookupResponse
						if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
							fail("vertex %d: status %d body %q", v, rec.Code, rec.Body)
							continue
						}
						if got.Partition < 0 || int(got.Partition) >= got.K {
							fail("vertex %d: partition %d outside k=%d", v, got.Partition, got.K)
						}
						if got.Version < last[v] {
							fail("vertex %d: version fell %d → %d", v, last[v], got.Version)
						}
						last[v] = got.Version
						if got.K < len(ks) {
							ks[got.K].Add(1)
						}
						a := answer{got.Partition, got.K}
						mu.Lock()
						if prev, ok := seen[key{v, got.Version}]; !ok {
							seen[key{v, got.Version}] = a
						} else if prev != a {
							fail("vertex %d version %d: answered %+v and %+v", v, got.Version, prev, a)
						}
						mu.Unlock()
					}
				}(r)
			}

			n := 600
			submit := func(batches int) {
				for i := 0; i < batches; i++ {
					if err := st.Submit(growthBatch(n, n+i)); err != nil {
						t.Fatal(err)
					}
					n += 2
					time.Sleep(time.Millisecond)
				}
			}
			submit(20)
			restabs := st.Counters().Restabilizations.Load()
			if err := st.Resize(8); err != nil {
				t.Fatal(err)
			}
			submit(20)
			if err := st.Quiesce(); err != nil {
				t.Fatal(err)
			}
			stop.Store(true)
			wg.Wait()

			if msg := firstEr.Load(); msg != nil {
				t.Fatalf("%d inconsistent responses; first: %s", bad.Load(), *msg)
			}
			c := st.Counters()
			if c.Restabilizations.Load() <= restabs {
				t.Fatal("resize did not force a restabilization")
			}
			if shards > 1 && c.ShardRebalances.Load() == 0 {
				t.Fatal("no shard rebalance: no vertex changed shards under the readers")
			}
			if ks[4].Load() == 0 || ks[8].Load() == 0 {
				t.Fatalf("readers saw k=4 %d times and k=8 %d times; want both", ks[4].Load(), ks[8].Load())
			}
		})
	}
}

// BenchmarkHTTPLookup serves single-key lookups through the full /v1 mux
// (routing, latency middleware, handler, JSON encoding) without a socket,
// so ns/op and B/op are the server-side cost of one request. Both should
// stay flat from n=20k to n=300k.
func BenchmarkHTTPLookup(b *testing.B) {
	for _, n := range []int{20_000, 300_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			mux := NewServer(ringStore(b, n, 16), nil).Mux()
			reqs := make([]*http.Request, 1024)
			for i := range reqs {
				reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/lookup?v="+strconv.Itoa((i*7919)%n), nil)
			}
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mux.ServeHTTP(w, reqs[i%len(reqs)])
				if w.code != http.StatusOK {
					b.Fatalf("lookup answered %d", w.code)
				}
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps only the status, so the
// benchmark measures the server side and not a response recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
