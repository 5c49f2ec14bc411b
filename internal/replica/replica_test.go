package replica

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wal"
)

// twoClusters mirrors the serve test graph: two dense pseudo-random
// clusters joined by a single bridge, with the obvious 2-way labeling.
func twoClusters(half int) (*graph.Weighted, []int32) {
	w := graph.NewWeighted(2 * half)
	addClique := func(off int) {
		for i := 0; i < half; i++ {
			for j := 1; j <= 6; j++ {
				u := (i + j*j*7 + 13*j) % half
				if u != i && i < u {
					dup := false
					for _, a := range w.Neighbors(graph.VertexID(off + i)) {
						if a.To == graph.VertexID(off+u) {
							dup = true
							break
						}
					}
					if !dup {
						w.AddEdge(graph.VertexID(off+i), graph.VertexID(off+u), 2)
					}
				}
			}
		}
	}
	addClique(0)
	addClique(half)
	w.AddEdge(0, graph.VertexID(half), 2)
	labels := make([]int32, 2*half)
	for v := half; v < 2*half; v++ {
		labels[v] = 1
	}
	return w, labels
}

func storeOpts(k int, seed uint64) core.Options {
	o := core.DefaultOptions(k)
	o.Seed = seed
	o.NumWorkers = 2
	o.MaxIterations = 60
	return o
}

// leaderCfg is the shared store configuration: small segments so the
// retention race is reachable, and identical partitioner options on both
// sides so quiesced histories replay bit-identically.
func leaderCfg(shards, checkpointEvery int) serve.Config {
	return serve.Config{
		Options:       storeOpts(2, 9),
		Shards:        shards,
		DegradeFactor: 1.05,
		Durability: serve.DurabilityConfig{
			CheckpointEvery:   checkpointEvery,
			NoFinalCheckpoint: true,
			SegmentBytes:      1 << 10,
		},
	}
}

func newLeader(t *testing.T, dir string, shards, checkpointEvery int) *serve.Store {
	t.Helper()
	w, labels := twoClusters(50)
	st, err := serve.NewDurable(dir, w, labels, leaderCfg(shards, checkpointEvery))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// fastServer is a leader Server tuned for test latency.
func fastServer(st *serve.Store, dir string, epoch func() uint64) *Server {
	srv := NewServer(st, dir, epoch)
	srv.Poll = 2 * time.Millisecond
	srv.Heartbeat = 20 * time.Millisecond
	return srv
}

func leaderHTTP(t testing.TB, st *serve.Store, dir string) (*httptest.Server, *Server) {
	t.Helper()
	srv := fastServer(st, dir, func() uint64 { return 1 })
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", srv.ServeStream)
	mux.HandleFunc("GET /v1/replicate/checkpoint", srv.ServeCheckpoint)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs, srv
}

// followerCfg matches leaderCfg minus the shard count: Shards 0 inherits
// the leader's checkpointed layout.
func followerCfg(checkpointEvery int) serve.Config {
	cfg := leaderCfg(0, checkpointEvery)
	cfg.Shards = 0
	return cfg
}

func startFollower(t *testing.T, leaderURL, dir string, cfg serve.Config) *Follower {
	t.Helper()
	fl, err := StartFollower(FollowerConfig{
		Leader: leaderURL, Dir: dir, Store: cfg, Reconnect: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return fl
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitApplied blocks until the follower has applied through seq and its
// store has settled (quiesced), so snapshots are comparable.
func waitApplied(t *testing.T, fl *Follower, seq uint64) {
	t.Helper()
	waitFor(t, 60*time.Second, fmt.Sprintf("follower to apply seq %d (at %d)", seq, fl.AppliedSeq()), func() bool {
		if err := fl.Err(); err != nil {
			t.Fatalf("follower died: %v", err)
		}
		return fl.AppliedSeq() >= seq
	})
	if err := fl.Store().Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// requireSameState is the replication bit-identity comparator: labels, k,
// shard ranges, and the integer cut counters, all over the exported
// surface.
func requireSameState(t *testing.T, name string, got, want *serve.Store) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if gs.K != ws.K || len(gs.Labels) != len(ws.Labels) {
		t.Fatalf("%s: k=%d with %d labels, want k=%d with %d labels", name, gs.K, len(gs.Labels), ws.K, len(ws.Labels))
	}
	for v := range ws.Labels {
		if gs.Labels[v] != ws.Labels[v] {
			t.Fatalf("%s: label of vertex %d = %d, want %d", name, v, gs.Labels[v], ws.Labels[v])
		}
	}
	if gs.CutWeight != ws.CutWeight || gs.TotalWeight != ws.TotalWeight {
		t.Fatalf("%s: counters (cut=%d,total=%d), want (cut=%d,total=%d)",
			name, gs.CutWeight, gs.TotalWeight, ws.CutWeight, ws.TotalWeight)
	}
	for l := range ws.CutByPartition {
		if gs.CutByPartition[l] != ws.CutByPartition[l] {
			t.Fatalf("%s: CutByPartition[%d] = %d, want %d", name, l, gs.CutByPartition[l], ws.CutByPartition[l])
		}
	}
	gb, wb := got.Bounds(), want.Bounds()
	if len(gb) != len(wb) {
		t.Fatalf("%s: %d shard bounds, want %d", name, len(gb), len(wb))
	}
	for i := range wb {
		if gb[i] != wb[i] {
			t.Fatalf("%s: shard bounds %v, want %v", name, gb, wb)
		}
	}
	if gs.AppliedBatches != ws.AppliedBatches {
		t.Fatalf("%s: applied %d, want %d", name, gs.AppliedBatches, ws.AppliedBatches)
	}
}

// randomHistory drives a randomized quiesced mutate/resize history against
// the leader: growth, random edges, and interleaved elastic resizes — the
// scripted TestShardCountDoesNotChangeLabels shape with rng-driven edges.
func randomHistory(t *testing.T, st *serve.Store, seed uint64, steps int) {
	t.Helper()
	src := rng.New(seed)
	n := len(st.Snapshot().Labels)
	for step := 0; step < steps; step++ {
		mut := &graph.Mutation{}
		if step == 2 {
			mut.NewVertices = 5
			for i := 0; i < 5; i++ {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID(n + i), V: graph.VertexID(src.Intn(n)), Weight: 2})
			}
			n += 5
		}
		for i := 0; i < 20; i++ {
			u := graph.VertexID(src.Intn(n))
			v := graph.VertexID(src.Intn(n))
			if u != v {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 1 + int32(src.Intn(3))})
			}
		}
		if err := st.Submit(mut); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if step == 3 {
			if err := st.Resize(3); err != nil {
				t.Fatal(err)
			}
			if err := st.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Resize(4); err != nil && err != serve.ErrKUnchanged {
		t.Fatal(err)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// The tentpole property: a follower that tails the stream to seq S is
// bit-identical — labels, k, shard ranges, integer cut counters — to the
// leader quiesced at S, at one and several shards, across a randomized
// mutate/resize history that spans checkpoints, segment rotations and
// journal truncation on the leader.
func TestFollowerBitIdenticalToLeader(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ldir, fdir := t.TempDir(), t.TempDir()
			leader := newLeader(t, ldir, shards, 4)
			hs, _ := leaderHTTP(t, leader, ldir)
			fl := startFollower(t, hs.URL, fdir, followerCfg(4))

			randomHistory(t, leader, 42+uint64(shards), 6)
			waitApplied(t, fl, leader.JournalSeq())
			requireSameState(t, "follower", fl.Store(), leader)

			if fl.Store().JournalSeq() != leader.JournalSeq() {
				t.Fatalf("follower journal at seq %d, leader at %d", fl.Store().JournalSeq(), leader.JournalSeq())
			}
			if !fl.Store().ReadOnly() {
				t.Fatal("follower store is not read-only")
			}
			if err := fl.Store().Submit(&graph.Mutation{NewVertices: 1}); err != serve.ErrReadOnly {
				t.Fatalf("follower Submit err = %v, want ErrReadOnly", err)
			}
		})
	}
}

// Every applied record lands in the apply-lag histogram: the follower
// advances its leader watermark before applying a records frame, so no
// record sees a negative lag and is skipped.
func TestFollowerApplyLagHistogramCountsEveryRecord(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := newLeader(t, ldir, 1, 4)
	hs, _ := leaderHTTP(t, leader, ldir)
	fl := startFollower(t, hs.URL, fdir, followerCfg(4))

	randomHistory(t, leader, 7, 6)
	waitApplied(t, fl, leader.JournalSeq())
	// applyRecord bumps the counter and records the lag just after it
	// publishes appliedSeq, so give the last record a moment to land.
	applied := &fl.Store().Counters().ReplicaRecordsApplied
	waitFor(t, 5*time.Second, "apply-lag histogram count to equal ReplicaRecordsApplied", func() bool {
		return fl.lagHist.Snapshot().Count == applied.Load()
	})
	if applied.Load() == 0 {
		t.Fatal("no records applied")
	}
}

// limitedWriter cuts the response after budget bytes — a torn stream
// frame mid-flight, the network fault the re-request path must absorb.
type limitedWriter struct {
	http.ResponseWriter
	budget int
}

func (lw *limitedWriter) Write(p []byte) (int, error) {
	if lw.budget <= 0 {
		return 0, fmt.Errorf("limitedWriter: budget exhausted")
	}
	if len(p) > lw.budget {
		n, _ := lw.ResponseWriter.Write(p[:lw.budget])
		lw.budget = 0
		return n, fmt.Errorf("limitedWriter: budget exhausted")
	}
	lw.budget -= len(p)
	return lw.ResponseWriter.Write(p)
}

// Kill the stream mid-frame, repeatedly: the follower must discard the
// torn frame, re-request from applied_seq, never apply a partial group,
// and still converge bit-identically.
func TestFollowerResumesAfterTornStream(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := newLeader(t, ldir, 2, -1) // no periodic checkpoints: the full history streams
	srv := fastServer(leader, ldir, func() uint64 { return 1 })

	// History first, so the torn connection cuts through real record
	// frames, not heartbeats.
	randomHistory(t, leader, 7, 6)
	S := leader.JournalSeq()

	var attempts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate/checkpoint", srv.ServeCheckpoint)
	mux.HandleFunc("GET /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		a := attempts.Add(1)
		if a <= 4 {
			// Grow the budget per attempt so each connection makes some
			// progress but still dies mid-frame (the handshake alone is 25
			// bytes).
			srv.ServeStream(&limitedWriter{ResponseWriter: w, budget: 30 + 40*int(a)}, r)
			return
		}
		srv.ServeStream(w, r)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	fl := startFollower(t, hs.URL, fdir, followerCfg(-1))
	waitApplied(t, fl, S)
	requireSameState(t, "torn-stream follower", fl.Store(), leader)

	ctr := fl.Store().Counters()
	if got := ctr.ReplicaReconnects.Load(); got < 4 {
		t.Fatalf("ReplicaReconnects = %d, want >= 4", got)
	}
	// Exactly one apply per leader record: a torn frame never half-applies
	// and a resumed stream never double-applies.
	if got := ctr.ReplicaRecordsApplied.Load(); got != int64(S) {
		t.Fatalf("ReplicaRecordsApplied = %d, want %d", got, S)
	}
}

// Promotion seals a new epoch, flips the store read-write, and fences the
// deposed leader: late frames carrying the old epoch are rejected, both
// at the frame handler and at the stream handshake (409).
func TestPromoteFencesDeposedLeader(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := newLeader(t, ldir, 2, 4)
	hs, _ := leaderHTTP(t, leader, ldir)
	fl := startFollower(t, hs.URL, fdir, followerCfg(4))

	randomHistory(t, leader, 11, 4)
	waitApplied(t, fl, leader.JournalSeq())

	oldEpoch := fl.Epoch()
	sealed := fl.AppliedSeq()
	ep, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Epoch != oldEpoch+1 || ep.SealedSeq != sealed {
		t.Fatalf("promoted to %+v, want epoch %d sealing seq %d", ep, oldEpoch+1, sealed)
	}
	if fl.Store().ReadOnly() {
		t.Fatal("promoted store still read-only")
	}
	// The new epoch is durable before writes open.
	if e, ok, err := LoadEpoch(fdir); err != nil || !ok || e != ep {
		t.Fatalf("LoadEpoch = %+v,%v,%v want %+v", e, ok, err, ep)
	}
	// A late frame from the deposed leader is fenced and counted.
	before := fl.Store().Counters().ReplicaFencedFrames.Load()
	if err := fl.handleFrame(Frame{Kind: FrameHeartbeat, Epoch: oldEpoch, LeaderSeq: sealed + 99}); err == nil {
		t.Fatal("old-epoch frame accepted after promotion")
	}
	if got := fl.Store().Counters().ReplicaFencedFrames.Load(); got != before+1 {
		t.Fatalf("ReplicaFencedFrames = %d, want %d", got, before+1)
	}
	if fl.AppliedSeq() != sealed || fl.LeaderSeq() > sealed+50 {
		t.Fatalf("fenced frame moved the watermark: applied %d, leader %d", fl.AppliedSeq(), fl.LeaderSeq())
	}
	// The promoted node accepts writes — no acknowledged state lost, new
	// writes journaled after the sealed position.
	if err := fl.Store().Submit(&graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 1, V: 2, Weight: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := fl.Store().Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got := fl.Store().JournalSeq(); got != sealed+1 {
		t.Fatalf("post-promotion journal seq %d, want %d", got, sealed+1)
	}
	// Promote is idempotent.
	again, err := fl.Promote()
	if err != nil || again != ep {
		t.Fatalf("second Promote = %+v,%v want %+v", again, err, ep)
	}
	// Stream handshake fencing on the leader side: a stale epoch is 409.
	resp, err := http.Get(hs.URL + "/v1/replicate?after_seq=0&epoch=99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch stream status %d, want 409", resp.StatusCode)
	}
}

// A crashed follower resumes from its OWN checkpoint + journal tail — the
// leader checkpoint fetch happens once, on first bootstrap only.
func TestFollowerCrashResumesFromOwnCheckpoint(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := newLeader(t, ldir, 2, 4)
	srv := fastServer(leader, ldir, func() uint64 { return 1 })

	var ckptFetches atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", srv.ServeStream)
	mux.HandleFunc("GET /v1/replicate/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		ckptFetches.Add(1)
		srv.ServeCheckpoint(w, r)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	fl := startFollower(t, hs.URL, fdir, followerCfg(4))
	randomHistory(t, leader, 23, 4)
	waitApplied(t, fl, leader.JournalSeq())
	resumeAt := fl.AppliedSeq()
	if got := ckptFetches.Load(); got != 1 {
		t.Fatalf("checkpoint fetched %d times during bootstrap, want 1", got)
	}
	fl.Close() // NoFinalCheckpoint: restart recovers checkpoint + own journal tail

	// The leader moves on while the follower is down.
	randomHistory(t, leader, 29, 3)

	fl2 := startFollower(t, hs.URL, fdir, followerCfg(4))
	if got := fl2.AppliedSeq(); got < resumeAt {
		t.Fatalf("restart resumed at seq %d, want >= %d (own state, not re-bootstrap)", got, resumeAt)
	}
	if got := ckptFetches.Load(); got != 1 {
		t.Fatalf("checkpoint fetched %d times after restart, want still 1", got)
	}
	waitApplied(t, fl2, leader.JournalSeq())
	requireSameState(t, "restarted follower", fl2.Store(), leader)
}

// The truncate-under-replication race: while a follower is connected
// (tracked), leader checkpoints must not reclaim journal segments the
// stream still needs; once it disconnects, truncation resumes.
func TestRetentionProtectsConnectedFollower(t *testing.T) {
	ldir := t.TempDir()
	w, labels := twoClusters(50)
	cfg := leaderCfg(2, 2)
	cfg.Durability.SegmentBytes = 256 // many small segments
	cfg.Durability.KeepCheckpoints = 1
	leader, err := serve.NewDurable(ldir, w, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	srv := fastServer(leader, ldir, func() uint64 { return 1 })

	// A connected follower that has consumed nothing yet.
	id := srv.track(1)

	churn := func(batches int) {
		t.Helper()
		for i := 0; i < batches; i++ {
			if err := leader.Submit(&graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{
				{U: graph.VertexID(i % 100), V: graph.VertexID((i*7 + 1) % 100), Weight: 2}}}); err != nil {
				t.Fatal(err)
			}
			if err := leader.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(10)
	waitFor(t, 30*time.Second, "leader checkpoints", func() bool {
		return leader.Counters().Checkpoints.Load() >= 3
	})
	// Everything from seq 1 must still be readable despite the checkpoints.
	_, first, last, err := wal.ReadFramesAfter(serve.JournalDir(ldir), 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || last < 10 {
		t.Fatalf("retained frames cover [%d,%d], want [1,>=10]", first, last)
	}

	// Disconnect: the pin clears and the next checkpoint reclaims.
	srv.untrack(id)
	waitFor(t, 30*time.Second, "journal truncation after disconnect", func() bool {
		churn(2)
		_, first, _, err := wal.ReadFramesAfter(serve.JournalDir(ldir), 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return first > 1
	})
}
