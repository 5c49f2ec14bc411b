// Package api is spinnerd's versioned HTTP surface: every endpoint lives
// under /v1/, success and error bodies are both JSON (errors share one
// envelope — {"error": msg, "code": c} with the status carrying the
// class and a Retry-After header wherever a backoff hint exists), and
// the change feed (/v1/watch) streams the store's delta records as
// CRC-checked binary frames (internal/frame). See the spinnerd command
// doc for the route reference; the typed Go client lives in api/client.
package api

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/serve"
)

// Replica carries a node's replication role into the API: Srv is non-nil
// on any durable node (it serves the journal stream), Fl is non-nil in
// follower mode. A nil *Replica is an in-memory node with no replication
// surface.
type Replica struct {
	Srv *replica.Server
	Fl  *replica.Follower
	// MaxStaleness bounds follower lookups: past this lag they answer
	// 503 {"code":"stale_replica"}. Zero serves regardless of lag.
	MaxStaleness time.Duration
}

// Following reports whether the node is still a tailing follower (false
// once promoted — and on leaders, which never had a tail).
func (rs *Replica) Following() bool {
	return rs != nil && rs.Fl != nil && !rs.Fl.Promoted()
}

// Role names the node's current replication role.
func (rs *Replica) Role() string {
	if rs.Following() {
		return "follower"
	}
	return "leader"
}

// Server serves the versioned HTTP API for one store.
type Server struct {
	st  *serve.Store
	rep *Replica

	// Heartbeat is the idle /v1/watch heartbeat period (default 1s).
	Heartbeat time.Duration

	// feed is the slice of the store the watch handler reads; it is the
	// store itself in production and a seam for tests that need to
	// inject compaction races deterministically.
	feed watchFeed
	// fanoutHist records publish-to-delivery latency of delta frames
	// written to watch streams (spinner_watch_fanout_duration_seconds).
	fanoutHist *metrics.Histogram
}

// watchFeed is the change-feed surface handleWatch consumes.
type watchFeed interface {
	DeltaBounds() (floor, next uint64)
	FramedDeltasSince(after uint64, max int) ([]serve.FramedDelta, uint64)
	SubscribeDeltas() *serve.DeltaSub
}

// NewServer wires a store (and its optional replication role) into an
// API server. rep may be nil.
func NewServer(st *serve.Store, rep *Replica) *Server {
	return &Server{st: st, rep: rep, Heartbeat: time.Second, feed: st,
		fanoutHist: st.Metrics().NewHistogram(
			"spinner_watch_fanout_duration_seconds",
			"Publish-to-delivery latency of delta frames written to /v1/watch streams (sampled at the last frame of each batch).",
			metrics.UnitSeconds,
		)}
}

// Mux builds the route table: every endpoint under /v1/, each wrapped by
// the latency middleware (middleware.go); /v1/watch and the replication
// stream record time-to-first-byte.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(name, false, h))
	}
	route("GET /v1/healthz", "healthz", s.handleHealthz)
	route("GET /v1/lookup", "lookup", s.handleLookup)
	route("POST /v1/mutate", "mutate", s.handleMutate)
	route("POST /v1/resize", "resize", s.handleResize)
	route("GET /v1/stats", "stats", s.handleStats)
	mux.HandleFunc("GET /v1/replicate", s.instrument("replicate", true, s.handleReplicate))
	route("GET /v1/replicate/checkpoint", "replicate_checkpoint", s.handleReplicateCheckpoint)
	route("POST /v1/promote", "promote", s.handlePromote)
	mux.HandleFunc("GET /v1/watch", s.instrument("watch", true, s.handleWatch))
	route("GET /v1/metrics", "metrics", s.handleMetrics)
	return mux
}

// HealthResponse is the GET /v1/healthz body.
type HealthResponse struct {
	Status string `json:"status"` // "ok" | "degraded"
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.st.Degraded() {
		resp := HealthResponse{Status: "degraded"}
		if err := s.st.Err(); err != nil {
			resp.Error = err.Error()
		}
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// LookupResponse is the GET /v1/lookup?v=ID body.
type LookupResponse struct {
	Vertex    int64  `json:"vertex"`
	Partition int32  `json:"partition"`
	Version   uint64 `json:"version"`
	K         int    `json:"k"`
}

// ResyncResponse is the GET /v1/lookup body with no v parameter: the
// full label map plus the delta sequence a /v1/watch consumer should
// resume from after applying it. FromSeq is captured before the labels
// snapshot, so deltas from FromSeq+1 onward re-deliver (never skip) any
// change racing the dump — replaying a delta over a state that already
// includes it is idempotent.
type ResyncResponse struct {
	K        int     `json:"k"`
	Vertices int     `json:"vertices"`
	Labels   []int32 `json:"labels"`
	FromSeq  uint64  `json:"from_seq"`
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	raw := q.Get("v")
	if !q.Has("v") {
		// Full resync for change-feed consumers that fell past the
		// compaction floor.
		if !s.checkStaleness(w) {
			return
		}
		fromSeq := s.resyncFromSeq()
		snap := s.st.Snapshot()
		writeJSON(w, http.StatusOK, ResyncResponse{
			K: snap.K, Vertices: len(snap.Labels), Labels: snap.Labels, FromSeq: fromSeq})
		return
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad vertex id")
		return
	}
	if !s.checkStaleness(w) {
		return
	}
	part, ok := s.st.Lookup(graph.VertexID(v))
	if !ok {
		writeError(w, http.StatusNotFound, "vertex not found")
		return
	}
	snap := s.st.Snapshot()
	writeJSON(w, http.StatusOK, LookupResponse{Vertex: v, Partition: part, Version: snap.Version, K: snap.K})
}

// resyncFromSeq returns the watch cursor a fresh full dump pairs with:
// the newest published delta sequence, read before the snapshot so the
// dump can only be newer than the cursor claims, never older.
func (s *Server) resyncFromSeq() uint64 {
	_, next := s.st.DeltaBounds()
	return next - 1
}

// checkStaleness enforces the follower staleness bound on the read
// path; it reports whether the request may proceed.
func (s *Server) checkStaleness(w http.ResponseWriter) bool {
	rep := s.rep
	if rep.Following() && rep.MaxStaleness > 0 && rep.Fl.Staleness() > rep.MaxStaleness {
		s.st.Counters().StaleLookups.Add(1)
		writeErrorCode(w, http.StatusServiceUnavailable, "stale_replica",
			fmt.Sprintf("replica %s behind the leader (bound %s)",
				rep.Fl.Staleness().Round(time.Millisecond), rep.MaxStaleness), time.Second)
		return false
	}
	return true
}

// MutateResponse is the POST /v1/mutate body.
type MutateResponse struct {
	Queued   bool `json:"queued"`
	Adds     int  `json:"adds"`
	Removes  int  `json:"removes"`
	Vertices int  `json:"vertices"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	mut, err := ParseMutation(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mut.Tenant = r.Header.Get("X-Tenant")
	if err := s.st.TrySubmit(mut); err != nil {
		var qe *serve.QuotaError
		switch {
		case errors.As(err, &qe):
			writeErrorCode(w, http.StatusTooManyRequests, "quota_exceeded", err.Error(), qe.RetryAfter)
		case errors.Is(err, serve.ErrLogFull):
			writeErrorCode(w, http.StatusTooManyRequests, "log_full", err.Error(), s.st.RetryAfter())
		case errors.Is(err, serve.ErrDegraded):
			writeErrorCode(w, http.StatusServiceUnavailable, "degraded", err.Error(), 0)
		case errors.Is(err, serve.ErrReadOnly):
			writeErrorCode(w, http.StatusServiceUnavailable, "read_only", err.Error(), 0)
		default:
			writeErrorCode(w, http.StatusServiceUnavailable, "unavailable", err.Error(), 0)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, MutateResponse{Queued: true,
		Adds: len(mut.NewEdges), Removes: len(mut.RemovedEdges), Vertices: mut.NewVertices})
}

// ResizeResponse is the POST /v1/resize body.
type ResizeResponse struct {
	Queued bool `json:"queued"`
	K      int  `json:"k"`
}

func (s *Server) handleResize(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, "bad k")
		return
	}
	// Resizes are the most expensive write (global relabel + repair
	// runs); under overload they are shed outright so the degradation
	// budget is spent on keeping lookups and mutations flowing.
	if s.st.Overloaded() {
		s.st.Counters().ShedRequests.Add(1)
		writeErrorCode(w, http.StatusServiceUnavailable, "overloaded", "serve: overloaded; resize shed", s.st.RetryAfter())
		return
	}
	if err := s.st.Resize(k); err != nil {
		switch {
		case errors.Is(err, serve.ErrKUnchanged):
			// The unchanged-k check lives inside Resize so concurrent
			// duplicate resizes race atomically, not via a stale K().
			writeErrorCode(w, http.StatusBadRequest, "k_unchanged", "k unchanged", 0)
		case errors.Is(err, serve.ErrDegraded):
			writeErrorCode(w, http.StatusServiceUnavailable, "degraded", err.Error(), 0)
		case errors.Is(err, serve.ErrReadOnly):
			writeErrorCode(w, http.StatusServiceUnavailable, "read_only", err.Error(), 0)
		default:
			writeErrorCode(w, http.StatusServiceUnavailable, "unavailable", err.Error(), 0)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, ResizeResponse{Queued: true, K: k})
}

// StatsResponse is the GET /v1/stats body — one struct so the field
// names are a stable, documented contract rather than ad-hoc map keys.
type StatsResponse struct {
	Vertices       int     `json:"vertices"`
	K              int     `json:"k"`
	Version        uint64  `json:"version"`
	Epoch          uint64  `json:"epoch"`
	Applied        uint64  `json:"applied"`
	Cut            float64 `json:"cut"`
	CutWeight      int64   `json:"cut_weight"`
	TotalWeight    int64   `json:"total_weight"`
	CutByPartition []int64 `json:"cut_by_partition"`
	Shards         int     `json:"shards"`
	Durable        bool    `json:"durable"`
	// JournalGroupDepth is the mean journal records framed per group
	// append — the entries amortizing each fsync under -fsync always.
	JournalGroupDepth float64                      `json:"journal_group_depth"`
	Counters          metrics.ServeSnapshot        `json:"counters"`
	Degraded          bool                         `json:"degraded"`
	Overloaded        bool                         `json:"overloaded"`
	DrainRate         float64                      `json:"drain_rate"`
	LookupRate        float64                      `json:"lookup_rate"`
	Tenants           map[string]serve.TenantStats `json:"tenants"`
	// DeltaFloor/DeltaNext bound the change feed: deltas with sequence
	// in [DeltaFloor, DeltaNext) are currently retrievable via
	// /v1/watch; older ones have been compacted away.
	DeltaFloor uint64 `json:"delta_floor"`
	DeltaNext  uint64 `json:"delta_next"`
	// Latency summarizes every non-empty histogram in the metric
	// registry (p50/p90/p99/max in seconds for duration series, raw
	// units otherwise); keys are compacted series names like "lookup",
	// "stage:apply" or "http_request:lookup:2xx". The full-resolution
	// data is the /v1/metrics exposition.
	Latency    map[string]LatencySummary `json:"latency,omitempty"`
	Role       string                    `json:"role"`
	AppliedSeq uint64                    `json:"applied_seq"`
	LeaderSeq  uint64                    `json:"leader_seq"`
	// Follower-only fields.
	StalenessMS      *int64  `json:"staleness_ms,omitempty"`
	ReplicationError string  `json:"replication_error,omitempty"`
	ReplicaEpoch     *uint64 `json:"replica_epoch,omitempty"`
	LastError        string  `json:"last_error,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.st.Snapshot()
	ctr := s.st.Counters().Snapshot()
	floor, next := s.st.DeltaBounds()
	resp := StatsResponse{
		Vertices:          len(snap.Labels),
		K:                 snap.K,
		Version:           snap.Version,
		Epoch:             snap.Epoch,
		Applied:           snap.AppliedBatches,
		Cut:               snap.CutRatio,
		CutWeight:         snap.CutWeight,
		TotalWeight:       snap.TotalWeight,
		CutByPartition:    snap.CutByPartition,
		Shards:            snap.Shards,
		Durable:           s.st.Durable(),
		JournalGroupDepth: ctr.GroupCommitDepth(),
		Counters:          ctr,
		Degraded:          s.st.Degraded(),
		Overloaded:        s.st.Overloaded(),
		DrainRate:         s.st.DrainRate(),
		LookupRate:        s.st.LookupRate(),
		Tenants:           s.st.Tenants(),
		DeltaFloor:        floor,
		DeltaNext:         next,
		Latency:           latencySection(s.st.Metrics()),
		Role:              s.rep.Role(),
		AppliedSeq:        s.st.JournalSeq(),
		LeaderSeq:         s.st.JournalSeq(),
	}
	if s.rep.Following() {
		resp.AppliedSeq = s.rep.Fl.AppliedSeq()
		resp.LeaderSeq = s.rep.Fl.LeaderSeq()
		ms := s.rep.Fl.Staleness().Milliseconds()
		resp.StalenessMS = &ms
		if err := s.rep.Fl.Err(); err != nil {
			resp.ReplicationError = err.Error()
		}
	}
	if s.rep != nil && s.rep.Fl != nil {
		ep := s.rep.Fl.Epoch()
		resp.ReplicaEpoch = &ep
	}
	if err := s.st.Err(); err != nil {
		resp.LastError = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// replicating gates the replication endpoints: only a durable
// non-following node serves the journal stream.
func (s *Server) replicating(w http.ResponseWriter) bool {
	if s.rep == nil || s.rep.Srv == nil {
		writeErrorCode(w, http.StatusServiceUnavailable, "not_durable", "replication requires -data-dir", 0)
		return false
	}
	if s.rep.Following() {
		// A tailing follower does not serve the stream: chaining
		// replicas from a replica would hide leader truncation and
		// staleness behind a second hop. Promote first.
		writeErrorCode(w, http.StatusServiceUnavailable, "follower", "node is a follower; promote it to serve replication", 0)
		return false
	}
	return true
}

func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if !s.replicating(w) {
		return
	}
	s.rep.Srv.ServeStream(w, r)
}

func (s *Server) handleReplicateCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.replicating(w) {
		return
	}
	s.rep.Srv.ServeCheckpoint(w, r)
}

// PromoteResponse is the POST /v1/promote body.
type PromoteResponse struct {
	Promoted  bool   `json:"promoted"`
	Epoch     uint64 `json:"epoch"`
	SealedSeq uint64 `json:"sealed_seq"`
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.rep == nil || s.rep.Fl == nil {
		writeErrorCode(w, http.StatusConflict, "not_follower", "node is not running with -follow", 0)
		return
	}
	ep, err := s.rep.Fl.Promote()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Promoted: true, Epoch: ep.Epoch, SealedSeq: ep.SealedSeq})
}

// ErrorBody is the JSON error envelope every endpoint shares.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the JSON error shape every endpoint shares:
// {"error": msg} with the status carrying the class.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorBody{Error: msg})
}

// writeErrorCode is writeError plus a stable machine-readable "code"
// field and, when retryAfter > 0, a Retry-After header carrying an
// honest backoff hint (whole seconds, minimum 1) computed from the
// store's observed drain rate.
func writeErrorCode(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, ErrorBody{Error: msg, Code: code})
}

// ParseMutation reads the /v1/mutate line protocol: one op per line —
// "+ u v [w]" adds an undirected edge (weight w, default 2), "- u v"
// removes one, "v n" appends n vertices; blank lines and #-comments are
// skipped.
func ParseMutation(r io.Reader) (*graph.Mutation, error) {
	mut := &graph.Mutation{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "+":
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: want '+ u v [w]'", lineNo)
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 32)
			v, err2 := strconv.ParseInt(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad endpoints", lineNo)
			}
			weight := int64(2)
			if len(fields) > 3 {
				var err error
				weight, err = strconv.ParseInt(fields[3], 10, 32)
				if err != nil || weight < 1 {
					return nil, fmt.Errorf("line %d: bad weight %q", lineNo, fields[3])
				}
			}
			mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
				U: graph.VertexID(u), V: graph.VertexID(v), Weight: int32(weight)})
		case "-":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: want '- u v'", lineNo)
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 32)
			v, err2 := strconv.ParseInt(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad endpoints", lineNo)
			}
			mut.RemovedEdges = append(mut.RemovedEdges, graph.Edge{From: graph.VertexID(u), To: graph.VertexID(v)})
		case "v":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: want 'v n'", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > graph.MaxVertices || mut.NewVertices > graph.MaxVertices-n {
				return nil, fmt.Errorf("line %d: bad vertex count %q", lineNo, fields[1])
			}
			mut.NewVertices += n
		default:
			return nil, fmt.Errorf("line %d: unknown op %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return mut, nil
}
