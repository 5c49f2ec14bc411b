// Package serve is the live partition-maintenance service: the
// production-shaped layer that turns Spinner's batch algorithms into a
// long-running system answering vertex→partition lookups under heavy
// concurrent traffic while the partitioning evolves underneath — the
// paper's core claim (§III-D/E) that partitions are *maintained*, not
// recomputed.
//
// # Architecture
//
// A Store is split into N shards, each owning a contiguous vertex range
// (its adjacency rows, its segment of the labeling, and the incremental
// cut counters of the edges whose lower endpoint falls in the range),
// coordinated by one control goroutine. Three planes:
//
//   - Read plane: a lookup loads the immutable vertex→shard route table
//     through one atomic pointer and the target shard's immutable snapshot
//     through another. No locks, no contention with writers; a published
//     snapshot is never mutated, so readers hold it as long as they like.
//     The partition, k and version stamp of one answer all come from that
//     one snapshot (Place).
//   - Write plane: graph.Mutation batches enter a bounded mutation log (a
//     buffered channel). Submit blocks for backpressure, TrySubmit fails
//     fast with ErrLogFull. The coordinator runs a staged commit pipeline:
//     each turn it drains EVERYTHING pending in the log, journals the
//     drained entries as one wal group (one write + one fsync on durable
//     stores — group commit), then applies them in order, merging each
//     maximal run of consecutive add-only batches into a single shard
//     broadcast (coalesced apply: one scan, one cut-delta fold, one
//     snapshot publication per shard for the whole run). Edge-addition
//     batches between existing vertices — the high-rate churn case —
//     broadcast to every shard: each picks out the arcs whose rows it
//     owns (two compares per edge), appends them, and folds an O(batch)
//     delta into its cut counters (labels are frozen between barriers, so
//     no synchronization is needed), then publishes an O(k) snapshot that
//     reuses the previous label copy. Batches that append vertices or
//     remove edges take the barrier path: the coordinator parks every
//     shard, applies the batch atomically to the merged graph, seeds new
//     vertices least-loaded (§III-D), folds the batch's exact cut deltas
//     into the owning shards (graph.Mutation.CutEdits), and republishes.
//   - Maintenance plane: the coordinator tracks the composed cut ratio
//     cross/total from integer per-shard counters — O(shards) per check
//     instead of the seed's exact O(E) recompute per swap. Past the
//     degradation threshold it barriers the shards, clones the merged
//     graph, and restabilizes in a background goroutine (§III-D) while the
//     shards keep ingesting and serving. Completed runs merge back under a
//     barrier and scatter per shard; mid-run per-iteration labelings
//     publish the same way. Elastic k→k′ (§III-E) relabels the n/(k+n)
//     fraction under a barrier and repairs in the background; in-flight
//     runs from the old k-space are discarded. Every ReconcileEvery
//     applied batches a reconciliation pass recomputes the per-shard
//     counters exactly (they must match bit-for-bit — the deltas are
//     integer arithmetic) and rebalances shard boundaries by weighted
//     degree (cluster.BalancedRanges).
//
// Determinism: with a fixed Options.Seed, a quiesced submit/await sequence
// yields identical labels regardless of worker count, shard count, or
// wall-clock timing: fast-path batches never relabel, every relabeling
// event runs under a barrier on the merged graph, and restabilization
// seeds derive from the run epoch. (Unquiesced sequences interleave merges
// with ingest nondeterministically, as any live system does.)
package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// Errors returned by the submission paths.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("serve: store closed")
	// ErrLogFull is returned by TrySubmit when the bounded mutation log is
	// at capacity (backpressure; retry or fall back to Submit).
	ErrLogFull = errors.New("serve: mutation log full")
)

// Config tunes a Store.
type Config struct {
	// Options configures the partitioner used for restabilization and
	// elastic repair. Options.K is the initial partition count. The zero
	// value of a field falls back to core defaults via normalization.
	Options core.Options
	// LogDepth bounds the mutation log; Submit blocks (and TrySubmit
	// fails) when this many entries are pending. Default 64.
	LogDepth int
	// DegradeFactor triggers a restabilization run when the tracked cut
	// ratio exceeds baseline·DegradeFactor + DegradeSlack, where baseline
	// is the cut ratio achieved by the last stabilization. Default 1.10
	// (10% degradation).
	DegradeFactor float64
	// DegradeSlack is the additive term of the trigger, guarding against a
	// zero baseline on perfectly separable graphs. Default 0.005.
	DegradeSlack float64
	// MidRunOff disables the per-iteration snapshot publication from
	// in-flight restabilization runs (on by default).
	MidRunOff bool
	// Shards is the number of contiguous vertex-range shards mutation
	// application parallelizes over (clamped to the vertex count).
	// Default 1 — a single shard reproduces the unsharded timing exactly;
	// serving deployments set it near the core count.
	Shards int
	// ShardLogDepth bounds each shard's sub-batch log. Default 32.
	ShardLogDepth int
	// ReconcileEvery runs the exact cut reconciliation and shard-boundary
	// rebalance after this many applied batches. Default 512; negative
	// disables (the incremental integer deltas are exact, so this is a
	// safety net and a rebalance point, not a correctness requirement).
	ReconcileEvery int
	// DeltaRing bounds the change-feed publication ring (delta.go): how
	// many Delta records stay retrievable for watch consumers before the
	// compaction floor rises past them. Default 1024.
	DeltaRing int
	// Durability tunes the journal + checkpoint subsystem. Only the
	// durable constructors (NewDurable, BootstrapDurable, Open) read it;
	// New and Bootstrap build in-memory stores regardless.
	Durability DurabilityConfig
	// Quota tunes per-tenant admission control and fair draining; the
	// zero value admits everything and weighs all tenants equally.
	Quota QuotaConfig
	// Overload tunes the degradation budget; the zero value never
	// declares overload.
	Overload OverloadConfig
	// LookupSampleEvery times one in N lookups into the lookup-latency
	// histogram (N is rounded up to a power of two). Timing every lookup
	// would roughly double the ~50ns lock-free path, so sampling keeps
	// the instrumented cost within noise while still filling the
	// histogram quickly at serving rates. 0 means the default 256;
	// negative disables lookup timing entirely.
	LookupSampleEvery int
}

func (c *Config) normalize() error {
	// Validate the partitioner configuration up front so a misconfigured
	// store fails at construction, not at the first background run.
	if _, err := core.NewPartitioner(c.Options); err != nil {
		return err
	}
	if c.LogDepth == 0 {
		c.LogDepth = 64
	}
	if c.LogDepth < 1 {
		return fmt.Errorf("serve: LogDepth=%d", c.LogDepth)
	}
	if c.DegradeFactor == 0 {
		c.DegradeFactor = 1.10
	}
	if c.DegradeFactor < 1 {
		return fmt.Errorf("serve: DegradeFactor=%v, want >= 1", c.DegradeFactor)
	}
	if c.DegradeSlack == 0 {
		c.DegradeSlack = 0.005
	}
	if c.DegradeSlack < 0 {
		return fmt.Errorf("serve: negative DegradeSlack")
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 {
		return fmt.Errorf("serve: Shards=%d", c.Shards)
	}
	if c.ShardLogDepth == 0 {
		c.ShardLogDepth = 32
	}
	if c.ShardLogDepth < 1 {
		return fmt.Errorf("serve: ShardLogDepth=%d", c.ShardLogDepth)
	}
	if c.ReconcileEvery == 0 {
		c.ReconcileEvery = 512
	}
	if c.DeltaRing == 0 {
		c.DeltaRing = 1024
	}
	if c.DeltaRing < 1 {
		return fmt.Errorf("serve: DeltaRing=%d", c.DeltaRing)
	}
	if c.LookupSampleEvery == 0 {
		c.LookupSampleEvery = 256
	}
	if err := c.Quota.normalize(); err != nil {
		return err
	}
	return c.Overload.normalize()
}

// Summary is the label-free part of the composed view: counts, k, the
// version stamp and the cut counters, built from one sweep of the shard
// snapshots in O(shards + k). /v1/stats and anything else that needs the
// vertex count or the cut without the labels should use it.
type Summary struct {
	// Vertices is the vertex count the captured shard ranges tile.
	Vertices int
	// K is the partition count this view's labels live in.
	K int
	// Version is the largest publication stamp among the captured shard
	// snapshots. Every publication draws a new, higher stamp from one
	// store-wide counter, so Version rises with each of them.
	Version uint64
	// AppliedBatches counts mutation batches resolved (applied or
	// rejected) at composition time.
	AppliedBatches uint64
	// Epoch counts restabilization merges reflected in this view.
	Epoch uint64
	// CutRatio is CutWeight/TotalWeight: the fraction of edge weight
	// crossing partitions (1−φ), tracked incrementally in integers.
	CutRatio float64
	// CutWeight and TotalWeight are the integer cut counters the ratio
	// derives from; CutByPartition is each partition's external weight
	// (a cut edge contributes its weight to both endpoints' partitions).
	CutWeight      int64
	TotalWeight    int64
	CutByPartition []int64
	// Shards is the shard count the view was composed from.
	Shards int
}

// Snapshot is an immutable composed view of the partitioning: a Summary
// plus the global label array of the same sweep. Lookups resolve against
// exactly one per-shard snapshot (Store.Place); Snapshot composes all of
// them for callers that want the global labeling.
type Snapshot struct {
	Summary
	// Labels maps vertex → partition; len(Labels) == Vertices. The slice
	// is immutable: neither the Store nor callers may write to it.
	Labels []int32
}

// Lookup resolves one vertex against the composed snapshot.
func (s *Snapshot) Lookup(v graph.VertexID) (int32, bool) {
	if v < 0 || int(v) >= len(s.Labels) {
		return -1, false
	}
	return s.Labels[v], true
}

// logEntry is one unit of maintenance work: a mutation batch, an elastic
// resize, a quiesce sentinel, or a recovery-control message (journal
// attach / forced reconcile), all ordered through the same log.
type logEntry struct {
	mut       *graph.Mutation
	newK      int        // >0: elastic resize
	quiesce   chan error // non-nil: reply when drained and stable
	attach    *attachReq // non-nil: adopt the journal after replay
	reconcile chan error // non-nil: run the exact pass now and reply
	ten       *tenantState
	seq       uint64 // arrival order, stamped by route; restores FIFO after DRR picking
}

// restabResult carries a completed background run back to the loop.
type restabResult struct {
	gen    uint64 // resize generation the run belongs to
	base   int    // vertex count the run saw
	labels []int32
	err    error
}

// midrunNote carries one per-iteration labeling out of an in-flight run.
// Only the latest unconsumed note is kept (older ones are superseded).
// Notes are stamped with both the resize generation and the epoch the run
// started at, so a leftover note from a completed run can never merge into
// a successor run's window.
type midrunNote struct {
	gen    uint64
	epoch  uint64
	base   int
	labels []int32
}

// Store is the live partition-maintenance service. See the package comment
// for the architecture. All exported methods are safe for concurrent use.
type Store struct {
	cfg    Config
	ctr    metrics.ServeCounters
	router atomic.Pointer[routeTable]
	pubSeq atomic.Uint64 // shard publication stamps (shardSnap.version)
	deltas *deltaHub     // change-feed ring; internally synchronized

	// Observability plane (instrument.go): the named-series registry the
	// whole process shares, the per-stage pipeline histograms, and the
	// sampled lookup-latency histogram with its sampling mask.
	reg        *metrics.Registry
	stageHist  [numStages]*metrics.Histogram
	lookupHist *metrics.Histogram
	lookupMask uint64

	submitted atomic.Int64 // batches submitted (staleness numerator)
	applied   atomic.Int64 // batches resolved (applied or rejected)
	lastErr   atomic.Pointer[error]

	log       chan logEntry
	batchDone chan struct{} // capacity 1; shards poke after resolving a batch
	closed    chan struct{} // closes when Close is called
	done      chan struct{} // closes when the coordinator exits

	// Admission state, shared between submitters and the coordinator.
	tenantsMu sync.Mutex
	tenants   map[string]*tenantState // lazily created on first submission
	now       func() time.Time        // test clock; nil means time.Now

	// Resize target: the current k composed with every queued resize.
	// Resize claims newK against it atomically, so a duplicate request
	// fails typed (ErrKUnchanged) instead of racing the coordinator.
	kMu     sync.Mutex
	targetK int

	// Overload / fail-stop state (written by the coordinator, read
	// anywhere).
	degraded   atomic.Bool   // journal poisoned; writes refuse with ErrDegraded
	overloaded atomic.Bool   // degradation budget engaged
	drainRate  atomic.Uint64 // EWMA resolved batches/sec (float64 bits)
	lookupRate atomic.Uint64 // EWMA lookups/sec (float64 bits)

	// Replication state (see replication.go). readOnly marks a follower
	// store: external writes refuse with ErrReadOnly while the replicated
	// apply path keeps flowing. journalSeq mirrors durable.lastSeq for
	// lock-free readers, and jrnLive exposes the attached journal to the
	// retention plumbing without entering the coordinator.
	readOnly   atomic.Bool
	journalSeq atomic.Uint64
	jrnLive    atomic.Pointer[wal.Journal]

	// Coordinator state (no locks: single owner between barriers).
	w               *graph.Weighted
	labels          []int32
	k               int
	shards          []*shard
	bounds          []int
	gen             uint64  // bumped by every resize; stamps in-flight runs
	epoch           uint64  // completed restabilization merges
	baseline        float64 // cut ratio achieved by the last stabilization
	wantRestab      bool    // forced run requested (elastic repair)
	appliedAtRestab int64   // batches resolved when the last run started
	lastReconcile   int64   // batches resolved at the last exact pass
	affected        map[graph.VertexID]struct{}
	pubGen          uint64 // bumped per barrier relabel/rebalance publication round
	inflight        bool
	restabDone      chan restabResult
	midrun          chan midrunNote // capacity 1; latest-wins mailbox
	ckptDone        chan ckptResult // capacity 1; background checkpointer reply
	quiescers       []chan error
	d               *durable // nil on in-memory stores

	// Fair-drain state (coordinator-only).
	ring              []*tenantState // tenants with a registered queue, first-seen order
	cursor            int            // DRR rotation point in ring
	controlQ          []logEntry     // routed control entries awaiting the next group
	queued            int            // mutation entries parked in tenant queues
	arrival           uint64         // monotonic arrival stamp
	groupBuf          []logEntry     // group-formation buffer, reused across turns
	loadAt            time.Time      // load-sampling state (updateLoad)
	loadLookups       int64
	loadApplied       int64
	restabDeferred    bool // current overload episode already counted a deferred restab
	reconcileDeferred bool
}

// New builds a Store over an already-partitioned weighted graph. The Store
// takes ownership of w and labels: the caller must not use either again.
// len(labels) must equal w.NumVertices() and every label must be inside
// [0, cfg.Options.K).
func New(w *graph.Weighted, labels []int32, cfg Config) (*Store, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s, err := newStore(w, labels, cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newStore builds the store and its shards without starting the
// goroutines, so the durable constructors can checkpoint or restore state
// while they still own it exclusively. cfg must already be normalized.
func newStore(w *graph.Weighted, labels []int32, cfg Config) (*Store, error) {
	if len(labels) != w.NumVertices() {
		return nil, fmt.Errorf("serve: %d labels for %d vertices", len(labels), w.NumVertices())
	}
	if err := metrics.ValidateLabels(labels, cfg.Options.K); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if n := w.NumVertices(); cfg.Shards > n {
		cfg.Shards = max(1, n)
	}
	s := &Store{
		cfg:        cfg,
		deltas:     newDeltaHub(cfg.DeltaRing),
		log:        make(chan logEntry, cfg.LogDepth),
		batchDone:  make(chan struct{}, 1),
		closed:     make(chan struct{}),
		done:       make(chan struct{}),
		w:          w,
		labels:     labels,
		k:          cfg.Options.K,
		targetK:    cfg.Options.K,
		affected:   make(map[graph.VertexID]struct{}),
		restabDone: make(chan restabResult, 1),
		midrun:     make(chan midrunNote, 1),
		ckptDone:   make(chan ckptResult, 1),
	}
	s.initMetrics()
	if w.NumVertices() == 0 {
		s.bounds = []int{0, 0}
	} else {
		s.bounds = cluster.BalancedRanges(w, cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			st: s, id: i,
			log:  make(chan shardEntry, cfg.ShardLogDepth),
			done: make(chan struct{}),
			w:    w, labels: labels,
			lo: s.bounds[i], hi: s.bounds[i+1],
			k: s.k,
		}
		sh.cross, sh.total, sh.perPart = metrics.CutWeightsRange(w, labels, s.k, sh.lo, sh.hi)
		sh.publishFresh()
		s.shards = append(s.shards, sh)
	}
	s.publishRouter()
	s.baseline = s.ownedCut()
	s.emitBaselineDelta()
	return s, nil
}

// start launches the shard and coordinator goroutines.
func (s *Store) start() {
	for _, sh := range s.shards {
		go sh.run()
	}
	go s.loop()
}

// Bootstrap partitions g from scratch and starts a Store over the result —
// the one-call path for drivers.
func Bootstrap(g *graph.Graph, cfg Config) (*Store, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	w := graph.Convert(g)
	p, err := core.NewPartitioner(cfg.Options)
	if err != nil {
		return nil, err
	}
	res, err := p.PartitionWeighted(w)
	if err != nil {
		return nil, err
	}
	return New(w, res.Labels, cfg)
}

// Placement is one vertex's answer, read from a single shard snapshot:
// the partition, and the k, epoch and version stamp of the snapshot the
// partition came from. Partition is in [0, K); two placements with equal
// Version came from the same snapshot.
type Placement struct {
	Partition int32
	K         int
	Epoch     uint64
	Version   uint64
}

// Place resolves v against the owning shard's current snapshot: one
// atomic load of the route table, one of the shard snapshot, no
// allocation. The second return is false when v is not (yet) visible:
// either never created, or appended by a batch whose snapshot has not been
// published.
func (s *Store) Place(v graph.VertexID) (Placement, bool) {
	// Latency sampling rides the counter every lookup already pays for:
	// unsampled lookups add one mask compare (~1ns), sampled ones pay the
	// two clock reads. See Config.LookupSampleEvery.
	n := s.ctr.Lookups.Add(1)
	sampled := uint64(n)&s.lookupMask == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	if lag := s.submitted.Load() - s.applied.Load(); lag > 0 {
		s.ctr.StalenessSum.Add(lag)
	}
	for {
		rt := s.router.Load()
		if v < 0 || int(v) >= rt.n {
			s.ctr.LookupMisses.Add(1)
			if sampled {
				s.lookupHist.Record(time.Since(t0))
			}
			return Placement{Partition: -1}, false
		}
		sn := rt.shardOf(v).snap.Load()
		if l, ok := sn.lookup(v); ok {
			if sampled {
				s.lookupHist.Record(time.Since(t0))
			}
			return Placement{Partition: l, K: sn.k, Epoch: sn.epoch, Version: sn.version}, true
		}
		// The router says v exists but the routed snapshot does not cover
		// it: the sweep raced a boundary republication (growth or
		// rebalance). The coordinator finishes publishing in straight-line
		// code, so a retry converges; a miss is never reported for a
		// vertex the published vertex space contains.
	}
}

// Lookup returns the partition of v; see Place.
func (s *Store) Lookup(v graph.VertexID) (int32, bool) {
	p, ok := s.Place(v)
	return p.Partition, ok
}

// sweep captures one publication round of shard snapshots and summarizes
// it. A sweep that interleaves with a boundary republication (growth or
// rebalance, both rare) can catch shards from different layouts; it
// retries until the captured ranges tile the vertex space exactly, so the
// labels they hold have no gaps or overlaps and every edge is counted by
// exactly one owner.
func (s *Store) sweep() ([]*shardSnap, Summary) {
	rt := s.router.Load()
	snaps := make([]*shardSnap, len(rt.shards))
	for {
		consistent := true
		end := 0
		for i, sh := range rt.shards {
			sn := sh.snap.Load()
			snaps[i] = sn
			// The sweep must capture one publication round: ranges tiling
			// the vertex space exactly AND a single label generation —
			// tiling alone would accept a mix of pre- and post-relabel
			// segments whose boundaries happen to agree.
			if sn.lo != end || sn.pubGen != snaps[0].pubGen {
				consistent = false
			}
			end = sn.lo + len(sn.labels)
		}
		if consistent {
			break
		}
		// Mid-republication; the coordinator finishes in straight-line
		// code, so a re-sweep converges promptly.
	}
	sum := Summary{K: 1, AppliedBatches: uint64(s.applied.Load()), Shards: len(rt.shards)}
	for _, sn := range snaps {
		sum.Vertices = max(sum.Vertices, sn.lo+len(sn.labels))
		sum.K = max(sum.K, sn.k)
		sum.Epoch = max(sum.Epoch, sn.epoch)
		sum.Version = max(sum.Version, sn.version)
		sum.CutWeight += sn.cross
		sum.TotalWeight += sn.total
	}
	sum.CutRatio = cutRatio(sum.CutWeight, sum.TotalWeight)
	sum.CutByPartition = make([]int64, sum.K)
	for _, sn := range snaps {
		for l, wgt := range sn.perPart {
			if l < sum.K {
				sum.CutByPartition[l] += wgt
			}
		}
	}
	return snaps, sum
}

// Summary returns the label-free view of one publication round in
// O(shards + k): no label is copied.
func (s *Store) Summary() Summary {
	_, sum := s.sweep()
	return sum
}

// Snapshot composes the per-shard snapshots of one publication round into
// one immutable global view, copying every label: O(n) time and memory.
// It is for the full-resync dump and for tools; per-request paths use
// Place (one vertex) or Summary (counts and cut counters).
func (s *Store) Snapshot() *Snapshot {
	snaps, sum := s.sweep()
	labels := make([]int32, sum.Vertices)
	for _, sn := range snaps {
		copy(labels[sn.lo:], sn.labels)
	}
	return &Snapshot{Summary: sum, Labels: labels}
}

// Counters exposes the serving metrics.
func (s *Store) Counters() *metrics.ServeCounters { return &s.ctr }

// Metrics exposes the store's named-series registry. It is the
// process-wide home for histograms and gauges: the API layer and the
// replication follower register their series here, so one /v1/metrics
// endpoint rendered from this registry covers the whole process.
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// Err returns the most recent batch-application error, if any. Rejected
// batches do not stop the store; they are counted and dropped.
func (s *Store) Err() error {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Submit appends a mutation batch to the log, blocking for backpressure
// while the log is full. The Store takes ownership of m; m.Tenant
// attributes the batch for admission control and fair draining (empty is
// the default tenant). Returns ErrClosed after Close, ErrDegraded after
// a storage fault, and a QuotaError (errors.Is ErrQuotaExceeded) when
// the tenant's admission bucket is empty.
func (s *Store) Submit(m *graph.Mutation) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	if s.degraded.Load() {
		return ErrDegraded
	}
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	t := s.tenant(m.Tenant)
	if err := s.admit(t, false); err != nil {
		return err
	}
	select {
	case s.log <- logEntry{mut: m, ten: t}:
		s.noteSubmitted(t)
		return nil
	case <-s.closed:
		return ErrClosed
	}
}

// TrySubmit is the non-blocking Submit: ErrLogFull when the bounded log
// is at capacity or the tenant's backlog cap (Quota.TenantDepth) is
// reached.
func (s *Store) TrySubmit(m *graph.Mutation) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	if s.degraded.Load() {
		return ErrDegraded
	}
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	t := s.tenant(m.Tenant)
	if err := s.admit(t, true); err != nil {
		return err
	}
	select {
	case s.log <- logEntry{mut: m, ten: t}:
		s.noteSubmitted(t)
		return nil
	case <-s.closed:
		return ErrClosed
	default:
		return ErrLogFull
	}
}

// submitReplay is Submit without admission control: recovery (Open)
// replays records the live process already admitted and journaled, and
// quota state is not persisted, so re-running admission could refuse a
// durably committed record.
func (s *Store) submitReplay(m *graph.Mutation) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	t := s.tenant(m.Tenant)
	select {
	case s.log <- logEntry{mut: m, ten: t}:
		s.noteSubmitted(t)
		return nil
	case <-s.closed:
		return ErrClosed
	}
}

// noteSubmitted counts one admitted batch against the store and tenant.
func (s *Store) noteSubmitted(t *tenantState) {
	s.submitted.Add(1)
	t.submitted.Add(1)
	t.backlog.Add(1)
}

// Resize requests an elastic change to newK partitions (§III-E). The
// relabeling of the n/(k+n) fraction is applied as soon as the entry is
// processed — lookups immediately see valid [0,newK) labels — and a
// background repair run restores locality. Ordered with Submit through the
// same log. Requesting the store's target k — the current count composed
// with every resize already queued — returns ErrKUnchanged; the check is
// atomic with the coordinator, so concurrent duplicate requests cannot
// both pass it.
func (s *Store) Resize(newK int) error {
	if newK < 1 {
		return fmt.Errorf("serve: resize to k=%d", newK)
	}
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	if s.degraded.Load() {
		return ErrDegraded
	}
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	s.kMu.Lock()
	if newK == s.targetK {
		s.kMu.Unlock()
		return ErrKUnchanged
	}
	prev := s.targetK
	s.targetK = newK
	s.kMu.Unlock()
	select {
	case s.log <- logEntry{newK: newK}:
		return nil
	case <-s.closed:
		// The claim never reached the log; restore it unless another
		// Resize raced past us (then the target is theirs to keep).
		s.kMu.Lock()
		if s.targetK == newK {
			s.targetK = prev
		}
		s.kMu.Unlock()
		return ErrClosed
	}
}

// Quiesce blocks until every entry submitted before the call has been
// applied and no restabilization is in flight or pending — the state in
// which the snapshot is fully stabilized. It returns the store's most
// recent batch-application error, if any. Used by tests and orderly
// shutdown; a serving deployment never needs it.
func (s *Store) Quiesce() error {
	reply := make(chan error, 1)
	select {
	case s.log <- logEntry{quiesce: reply}:
	case <-s.closed:
		return ErrClosed
	}
	select {
	case err := <-reply:
		return err
	case <-s.done:
		return ErrClosed
	}
}

// Close stops the coordinator and the shard goroutines and waits for them
// (and any in-flight restabilization, whose result is discarded) to exit.
// Lookups remain valid against the last published snapshots after Close.
func (s *Store) Close() error {
	select {
	case <-s.closed:
		<-s.done
		return nil
	default:
	}
	close(s.closed)
	<-s.done
	return nil
}

// cutRatio derives the float ratio from the integer counters; an edgeless
// graph cuts nothing.
func cutRatio(cross, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(cross) / float64(total)
}

// publishRouter swaps in a fresh immutable route table. Coordinator-only.
func (s *Store) publishRouter() {
	s.router.Store(&routeTable{
		n:      s.w.NumVertices(),
		bounds: append([]int(nil), s.bounds...),
		shards: s.shards,
	})
}

// shardIndexOf routes a vertex on the coordinator's authoritative bounds.
func (s *Store) shardIndexOf(v graph.VertexID) int {
	return rangeIndex(s.bounds, v)
}

// ownedCut composes the cut ratio from the shard-owned counters. Only
// valid under a barrier (or before the shards start).
func (s *Store) ownedCut() float64 {
	var cross, total int64
	for _, sh := range s.shards {
		cross += sh.cross
		total += sh.total
	}
	return cutRatio(cross, total)
}

// currentCut composes the cut ratio from the published shard snapshots —
// safe anytime, trailing in-flight sub-batches by at most one loop turn.
func (s *Store) currentCut() float64 {
	var cross, total int64
	for _, sh := range s.shards {
		sn := sh.snap.Load()
		cross += sn.cross
		total += sn.total
	}
	return cutRatio(cross, total)
}

// withBarrier parks every shard, folds their pending edge/weight totals
// into the shared graph, runs fn with exclusive access to all state, and
// resumes the shards. Entries forwarded before the barrier are guaranteed
// applied when fn runs (shard logs are FIFO).
func (s *Store) withBarrier(fn func()) {
	s.withBarrierWork(nil, fn)
}

// withBarrierWork is withBarrier with a parallel pre-step: each shard
// goroutine runs work(sh) before acking, so per-shard computations (the
// exact reconcile pass) fan out across the shards instead of serializing
// on the coordinator. work may touch only the shard's own state and rows
// and barrier-frozen shared state (labels never change outside barriers).
func (s *Store) withBarrierWork(work func(*shard), fn func()) {
	b := &barrier{ack: make(chan struct{}, len(s.shards)), resume: make(chan struct{}), work: work}
	for _, sh := range s.shards {
		sh.log <- shardEntry{barrier: b}
	}
	for range s.shards {
		<-b.ack
	}
	for _, sh := range s.shards {
		if sh.dEdges != 0 || sh.dWeight != 0 {
			s.w.AdjustTotals(sh.dEdges, sh.dWeight)
			sh.dEdges, sh.dWeight = 0, 0
		}
	}
	fn()
	close(b.resume)
}

// finishBatch resolves every batch a fast-path broadcast carried; called
// by the shard that completed its last sub-batch.
func (s *Store) finishBatch(tr *batchTracker) {
	s.ctr.BatchesApplied.Add(tr.batches)
	s.ctr.EdgesAdded.Add(tr.edges)
	s.applied.Add(tr.batches)
	s.emitCounterDelta()
	select {
	case s.batchDone <- struct{}{}:
	default:
	}
}

// loop is the coordinator: sole owner of the authoritative graph topology
// and labels (jointly with the shards, exclusively under barriers). Each
// turn transfers what is pending in the log into the per-tenant fair
// queues, forms a commit group (deficit-round-robin across tenants,
// capped at LogDepth — see nextGroup) and pushes it through the commit
// pipeline (journal group → coalesced apply) as one unit. When the
// degradation budget is enabled a ticker wakes the loop every sampling
// window, so overload engages and clears on time even with no traffic.
func (s *Store) loop() {
	defer close(s.done)
	var tickC <-chan time.Time
	if s.cfg.Overload.enabled() {
		t := time.NewTicker(s.cfg.Overload.Window)
		defer t.Stop()
		tickC = t.C
	}
	for {
		s.updateLoad(s.clock())
		s.maybeReconcile()
		s.maybeCheckpoint()
		s.maybeRestabilize()
		s.maybeReleaseQuiescers()
		tDrain := time.Now()
		s.transferLog()
		if g := s.nextGroup(); len(g) > 0 {
			s.stageHist[stageDrain].Record(time.Since(tDrain))
			s.handleGroup(g)
			clear(g) // drop batch references; the buffer outlives the turn
			continue
		}
		select {
		case e := <-s.log:
			s.route(e)
		case <-s.batchDone:
			// Fast-path batches resolved; loop to re-evaluate triggers.
		case res := <-s.restabDone:
			s.merge(res)
		case note := <-s.midrun:
			s.mergeMidrun(note)
		case res := <-s.ckptDone:
			s.finishCheckpoint(res)
		case <-tickC:
			// Load-sampling tick; updateLoad runs at the top of the turn.
		case <-s.closed:
			s.drainAndExit()
			return
		}
	}
}

// drainAndExit waits out an in-flight run (discarding it), stops the
// shards, fails pending quiescers and queued controls, and drops
// unprocessed mutation entries (from the channel and the fair queues).
func (s *Store) drainAndExit() {
	if s.inflight {
		<-s.restabDone
		s.inflight = false
		s.ctr.RestabDiscarded.Add(1)
	}
	for _, sh := range s.shards {
		close(sh.log) // coordinator is the only sender
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	s.finishDurable()
	failControl := func(e logEntry) {
		switch {
		case e.quiesce != nil:
			e.quiesce <- ErrClosed
		case e.attach != nil:
			e.attach.reply <- ErrClosed
		case e.reconcile != nil:
			e.reconcile <- ErrClosed
		}
	}
	for {
		select {
		case e := <-s.log:
			failControl(e)
			if e.mut != nil && e.ten != nil {
				e.ten.backlog.Add(-1)
			}
		default:
			for _, t := range s.ring {
				for t.qlen() > 0 {
					t.pop()
					t.backlog.Add(-1)
					s.queued--
				}
			}
			for _, e := range s.controlQ {
				failControl(e)
			}
			s.controlQ = nil
			for _, q := range s.quiescers {
				q <- ErrClosed
			}
			return
		}
	}
}

// handleGroup processes one drained group of log entries — the staged
// commit pipeline. Stage 1 (journalGroup): every mutation/resize in the
// group is durably framed as one wal group append BEFORE any of them is
// applied, preserving the pre-apply durability boundary per entry while
// paying at most one fsync for the group. Stage 2 (coalesced apply): the
// entries are applied strictly in submission order, with each maximal
// run of consecutive fast-path-eligible add-only batches merged into a
// single shard broadcast. Control entries (quiesce, attach, reconcile)
// are interleaved at their submitted positions.
func (s *Store) handleGroup(entries []logEntry) {
	var ok bool
	if s.d != nil && s.d.active {
		tJournal := time.Now()
		ok = s.journalGroup(entries)
		s.stageHist[stageJournal].Record(time.Since(tJournal))
	} else {
		ok = s.journalGroup(entries)
	}
	tApply := time.Now()
	defer func() { s.stageHist[stageApply].Record(time.Since(tApply)) }()
	var run []*graph.Mutation
	flush := func() {
		if len(run) > 0 {
			s.broadcast(run)
			run = nil // ownership moved to the shards; never reuse
		}
	}
	for _, e := range entries {
		switch {
		case e.quiesce != nil:
			s.quiescers = append(s.quiescers, e.quiesce)
		case e.attach != nil:
			flush()
			s.d.jrn = e.attach.jrn
			s.d.lastSeq = e.attach.lastSeq
			s.d.ckptApplied = s.applied.Load()
			s.d.active = true
			s.jrnLive.Store(e.attach.jrn)
			s.journalSeq.Store(e.attach.lastSeq)
			e.attach.reply <- nil
		case e.reconcile != nil:
			flush()
			s.reconcile(false)
			e.reconcile <- nil
		case e.newK > 0:
			if !ok {
				continue // group journal failed; entry was never durable
			}
			flush()
			s.resize(e.newK)
		default:
			if !ok {
				continue // rejected in journalGroup
			}
			if s.stageFastPath(e.mut, &run) {
				// Staged (or resolved inline) batches cannot fail; count the
				// tenant's commit now rather than threading tenants through
				// the shard broadcast.
				if e.ten != nil {
					e.ten.committed.Add(1)
				}
				continue
			}
			flush()
			s.applyGlobalBatch(e.mut, e.ten)
		}
	}
	flush()
}

// stageFastPath stages an add-only batch into the current coalesce run;
// each shard will pick out the arcs whose rows it owns with two compares
// per edge, so the coordinator's serial cost per batch is one validation
// scan plus the (per-run, not per-batch) sends. Such a batch can never
// fail validation (the checks are graph-independent), so atomicity is
// trivial, and it never relabels, so the shards apply it against frozen
// labels without synchronization — which is also why coalescing runs is
// sound: the composed effect of consecutive add-only batches is
// independent of how they are grouped. Eligibility is evaluated in
// submission order: the vertex bound only changes on the barrier path,
// which always flushes the run first.
func (s *Store) stageFastPath(m *graph.Mutation, run *[]*graph.Mutation) bool {
	if m.NewVertices != 0 || len(m.RemovedEdges) != 0 {
		return false
	}
	n := graph.VertexID(s.w.NumVertices())
	for _, e := range m.NewEdges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V {
			return false
		}
	}
	if len(m.NewEdges) == 0 { // empty batch: resolve immediately
		s.ctr.BatchesApplied.Add(1)
		s.applied.Add(1)
		return true
	}
	if s.cfg.Options.AffectedOnly {
		for _, e := range m.NewEdges {
			s.affected[e.U] = struct{}{}
			s.affected[e.V] = struct{}{}
		}
	}
	*run = append(*run, m)
	return true
}

// broadcast fans one coalesced run of add-only batches out to every
// shard as a single shardEntry: one queue hop, one cut-delta fold and
// one snapshot publication per shard for the whole run. The run slice is
// handed to the shards and must not be reused by the caller.
func (s *Store) broadcast(run []*graph.Mutation) {
	var edges int64
	for _, m := range run {
		edges += int64(len(m.NewEdges))
	}
	if len(run) > 1 {
		s.ctr.ApplyCoalesces.Add(1)
		s.ctr.CoalescedBatches.Add(int64(len(run)))
	}
	tr := &batchTracker{batches: int64(len(run)), edges: edges}
	tr.remaining.Store(int32(len(s.shards)))
	e := shardEntry{muts: run, tracker: tr}
	for _, sh := range s.shards {
		sh.log <- e
	}
}

// applyGlobalBatch applies one batch under a barrier: vertex growth,
// removals, and invalid batches land here. Application is atomic
// (Mutation.Apply validates first); a rejected batch is counted, recorded
// and dropped with the graph untouched. Cut counters advance by the
// batch's O(batch) exact deltas, never an O(E) recompute — except the
// ErrCutAmbiguous corner (duplicate-pair removals with differing weights),
// which falls back to reconciliation.
func (s *Store) applyGlobalBatch(m *graph.Mutation, ten *tenantState) {
	s.withBarrier(func() {
		oldN := s.w.NumVertices()
		edits, editErr := m.CutEdits(s.w)
		firstNew, err := m.Apply(s.w)
		if err != nil {
			s.ctr.BatchesRejected.Add(1)
			s.lastErr.Store(&err)
			s.applied.Add(1) // resolved, though rejected
			if ten != nil {
				ten.rejected.Add(1)
			}
			return
		}
		grew := firstNew >= 0
		if grew {
			newN := s.w.NumVertices()
			grown := make([]int32, newN)
			copy(grown, s.labels)
			core.SeedNewVertices(s.w, grown, oldN, s.k)
			s.labels = grown
			for _, sh := range s.shards {
				sh.labels = grown
			}
			// The appended tail extends the last shard's range; boundaries
			// rebalance at the next reconciliation pass.
			s.shards[len(s.shards)-1].hi = newN
			s.bounds[len(s.bounds)-1] = newN
			s.ctr.VerticesAdded.Add(int64(newN - oldN))
			if s.cfg.Options.AffectedOnly {
				for v := oldN; v < newN; v++ {
					s.affected[graph.VertexID(v)] = struct{}{}
				}
			}
		}
		if s.cfg.Options.AffectedOnly {
			for _, v := range m.TouchedVertices() {
				if int(v) < s.w.NumVertices() {
					s.affected[v] = struct{}{}
				}
			}
		}
		s.ctr.EdgesAdded.Add(int64(len(m.NewEdges)))
		s.ctr.EdgesRemoved.Add(int64(len(m.RemovedEdges)))
		s.ctr.BatchesApplied.Add(1)
		s.applied.Add(1)
		if ten != nil {
			ten.committed.Add(1)
		}
		// The appended tail is the only label change a barrier apply makes;
		// existing labels are untouched, so the delta's runs are exact.
		var runs []LabelRun
		if grew {
			runs = []LabelRun{{Start: oldN, Labels: append([]int32(nil), s.labels[oldN:]...)}}
		}

		if editErr != nil {
			// Valid batch whose removal weights were unpredictable:
			// recompute exactly (rare safety valve, see ErrCutAmbiguous).
			s.recomputeShardCuts()
			if grew {
				s.publishRouter()
			}
			s.emitBarrierDelta(runs, grew)
			return
		}
		touched := make([]bool, len(s.shards))
		for _, ed := range edits {
			sh := s.shards[s.shardIndexOf(ed.U)]
			wgt := int64(ed.Weight)
			if !ed.Add {
				wgt = -wgt
			}
			sh.total += wgt
			if lu, lv := s.labels[ed.U], s.labels[ed.V]; lu != lv {
				sh.cross += wgt
				sh.perPart[lu] += wgt
				sh.perPart[lv] += wgt
			}
			touched[sh.id] = true
		}
		last := len(s.shards) - 1
		for i, sh := range s.shards {
			switch {
			case i == last && grew:
				sh.publishFresh() // segment grew: copy the new tail
			case touched[i]:
				sh.publishDelta()
			}
		}
		if grew {
			s.publishRouter()
		}
		s.emitBarrierDelta(runs, grew)
	})
}

// resize performs the elastic step of §III-E under a barrier: relabel the
// n/(k+n) fraction (or collapse removed partitions) immediately and
// deterministically, then schedule a background repair run. An in-flight
// restabilization belongs to the old k-space; bumping the generation
// invalidates it.
func (s *Store) resize(newK int) {
	if newK == s.k {
		return
	}
	s.withBarrier(func() {
		seed := s.cfg.Options.Seed ^ (0x9e37*s.gen + 0xb5)
		relabeled, err := core.ElasticRelabel(s.labels, s.k, newK, seed)
		if err != nil {
			s.lastErr.Store(&err)
			return
		}
		moved := 0
		for v := range relabeled {
			if relabeled[v] != s.labels[v] {
				moved++
			}
		}
		runs := labelDiffRuns(s.labels, relabeled)
		s.labels = relabeled
		s.k = newK
		s.gen++
		s.wantRestab = true
		s.ctr.ElasticResizes.Add(1)
		s.ctr.ElasticSeedMoved.Add(int64(moved))
		s.recomputeShardCuts()
		s.emitBarrierDelta(runs, false)
	})
}

// recomputeShardCuts refreshes every shard's labels view, counters (exact)
// and snapshot. Coordinator-only, under a barrier; used by the relabeling
// events (resize, merges), which move too many labels for per-edge deltas
// to pay off.
func (s *Store) recomputeShardCuts() {
	tPublish := time.Now()
	defer func() { s.stageHist[stagePublish].Record(time.Since(tPublish)) }()
	s.pubGen++ // new label generation: Snapshot refuses to mix rounds
	for _, sh := range s.shards {
		sh.labels = s.labels
		sh.k = s.k
		sh.epoch = s.epoch
		sh.pubGen = s.pubGen
		sh.cross, sh.total, sh.perPart = metrics.CutWeightsRange(s.w, s.labels, s.k, sh.lo, sh.hi)
		sh.publishFresh()
	}
}

// shouldRestabilize evaluates the degradation trigger.
func (s *Store) shouldRestabilize() bool {
	if s.wantRestab {
		return true
	}
	return s.applied.Load() > s.appliedAtRestab &&
		s.currentCut() > s.baseline*s.cfg.DegradeFactor+s.cfg.DegradeSlack
}

// maybeRestabilize starts a background incremental run when the trigger
// fires and none is in flight. Under overload the run is deferred — the
// degradation budget trades cut quality for lookup latency — and starts
// at the first turn after the load clears. The clone is taken under a
// barrier so the run sees a consistent merged graph; the shards then
// keep ingesting and serving while the run adapts the clone, streaming
// per-iteration labels back through the mid-run mailbox.
func (s *Store) maybeRestabilize() {
	if s.inflight || !s.shouldRestabilize() {
		return
	}
	if s.overloaded.Load() {
		if !s.restabDeferred {
			s.restabDeferred = true
			s.ctr.DeferredRestabs.Add(1)
		}
		return
	}
	s.restabDeferred = false
	var clone *graph.Weighted
	var prev []int32
	var affected []graph.VertexID
	s.withBarrier(func() {
		s.wantRestab = false
		s.appliedAtRestab = s.applied.Load()
		clone = s.w.Clone()
		prev = append([]int32(nil), s.labels...)
		if s.cfg.Options.AffectedOnly {
			affected = make([]graph.VertexID, 0, len(s.affected))
			for v := range s.affected {
				affected = append(affected, v)
			}
		}
		s.affected = make(map[graph.VertexID]struct{})
	})

	opts := s.cfg.Options
	opts.K = s.k
	// Epoch-derived seed: deterministic across runs of the same entry
	// sequence, distinct across restabilizations.
	opts.Seed = s.cfg.Options.Seed ^ (0xa5a5*(s.epoch+1) + 0x51*s.gen)
	// A completed run's final note may still sit unconsumed in the mailbox
	// (the loop's select drains restabDone and midrun in arbitrary order);
	// clear it so it cannot be attributed to the run starting now.
	select {
	case <-s.midrun:
	default:
	}
	gen, base, epoch := s.gen, clone.NumVertices(), s.epoch
	if !s.cfg.MidRunOff {
		opts.IterationSnapshot = func(_ int, labels []int32) {
			note := midrunNote{gen: gen, epoch: epoch, base: base, labels: labels}
			// Latest-wins mailbox: drop the stale note, never block the run.
			for {
				select {
				case s.midrun <- note:
					return
				default:
				}
				select {
				case <-s.midrun:
				default:
				}
			}
		}
	}
	s.inflight = true
	go func() {
		p, err := core.NewPartitioner(opts)
		if err != nil {
			s.restabDone <- restabResult{gen: gen, base: base, err: err}
			return
		}
		res, err := p.Adapt(clone, prev, affected)
		if err != nil {
			s.restabDone <- restabResult{gen: gen, base: base, err: err}
			return
		}
		s.restabDone <- restabResult{gen: gen, base: base, labels: res.Labels}
	}()
}

// mergeMidrun publishes an in-flight run's intermediate labeling: run
// labels for the vertices the run saw, current (seeded) labels for any
// appended since. Stale notes — a resize landed (gen), or the note belongs
// to an already-merged run (epoch) — are dropped.
func (s *Store) mergeMidrun(note midrunNote) {
	if note.gen != s.gen || note.epoch != s.epoch || !s.inflight {
		return
	}
	s.withBarrier(func() {
		merged := make([]int32, len(s.labels))
		copy(merged, note.labels[:note.base])
		copy(merged[note.base:], s.labels[note.base:])
		runs := labelDiffRuns(s.labels, merged)
		s.labels = merged
		s.ctr.MidRunSnapshots.Add(1)
		s.recomputeShardCuts()
		s.emitBarrierDelta(runs, false)
	})
}

// merge lands a completed restabilization: counts the migration volume,
// adopts the run's labels (plus seeded labels for vertices appended during
// the run), resets the degradation baseline, and republishes every shard.
// Runs from a previous resize generation are discarded — their labels live
// in the wrong k-space.
func (s *Store) merge(res restabResult) {
	s.inflight = false
	if res.err != nil {
		s.lastErr.Store(&res.err)
		s.ctr.RestabDiscarded.Add(1)
		return
	}
	if res.gen != s.gen {
		s.ctr.RestabDiscarded.Add(1)
		return
	}
	s.withBarrier(func() {
		merged := make([]int32, len(s.labels))
		copy(merged, res.labels[:res.base])
		copy(merged[res.base:], s.labels[res.base:])
		verts, weight := cluster.MigrationVolume(s.w, s.labels, merged)
		s.ctr.MigratedVertices.Add(verts)
		s.ctr.MigratedWeight.Add(weight)
		runs := labelDiffRuns(s.labels, merged)
		s.labels = merged
		s.epoch++
		s.ctr.Restabilizations.Add(1)
		s.recomputeShardCuts()
		s.baseline = s.ownedCut()
		s.emitBarrierDelta(runs, false)
	})
}

// maybeReconcile runs the periodic exact pass every ReconcileEvery
// resolved batches, deferring it while the store is overloaded (the
// incremental counters are exact, so postponing the safety net costs
// nothing but the rebalance point).
func (s *Store) maybeReconcile() {
	if s.cfg.ReconcileEvery <= 0 {
		return
	}
	if s.applied.Load()-s.lastReconcile < int64(s.cfg.ReconcileEvery) {
		return
	}
	if s.overloaded.Load() {
		if !s.reconcileDeferred {
			s.reconcileDeferred = true
			s.ctr.DeferredReconciles.Add(1)
		}
		return
	}
	s.reconcileDeferred = false
	s.reconcile(true)
}

// reconcile is the exact pass: every shard recomputes the counters of its
// owned edges from its own rows in parallel, inside the barrier's work
// step (the recompute reads only the shard's rows and the barrier-frozen
// labels, so the shards race nothing); the coordinator then verifies them
// against the incremental values bit-for-bit and, on the periodic path,
// rebalances the shard boundaries by weighted degree. Open runs it once
// after replay with rebalance=false: a recovered store proves its
// counters before serving without disturbing the recovered shard ranges
// (or the periodic rebalance cadence, which lastReconcile carries across
// the crash).
func (s *Store) reconcile(rebalance bool) {
	if s.w.NumVertices() < len(s.shards) {
		// A zero-vertex store has one shard with an empty range; there is
		// nothing to reconcile or rebalance (and BalancedRanges requires
		// shards <= vertices).
		if rebalance {
			s.lastReconcile = s.applied.Load()
		}
		return
	}
	type exact struct {
		cross, total int64
		perPart      []int64
	}
	// Computed over the CURRENT ownership before any boundary moves — a
	// moved boundary transfers edges between shards, which is not drift.
	// Indexed writes from the shard goroutines never alias.
	results := make([]exact, len(s.shards))
	s.withBarrierWork(func(sh *shard) {
		cross, total, perPart := metrics.CutWeightsRange(sh.w, sh.labels, sh.k, sh.lo, sh.hi)
		results[sh.id] = exact{cross: cross, total: total, perPart: perPart}
	}, func() {
		drifted := make([]bool, len(s.shards))
		for i, sh := range s.shards {
			r := results[i]
			if r.cross != sh.cross || r.total != sh.total || !slices.Equal(r.perPart, sh.perPart) {
				drifted[i] = true
				s.ctr.CutDrift.Add(1)
				sh.cross, sh.total, sh.perPart = r.cross, r.total, r.perPart
			}
		}
		rebalanced := false
		if rebalance {
			newBounds := cluster.BalancedRanges(s.w, len(s.shards))
			rebalanced = !slices.Equal(newBounds, s.bounds)
			if rebalanced {
				copy(s.bounds, newBounds)
				s.pubGen++ // boundary move: republish every shard as one round
				s.ctr.ShardRebalances.Add(1)
			}
		}
		for i, sh := range s.shards {
			if rebalanced {
				sh.lo, sh.hi = s.bounds[i], s.bounds[i+1]
				sh.pubGen = s.pubGen
				sh.cross, sh.total, sh.perPart = metrics.CutWeightsRange(s.w, s.labels, s.k, sh.lo, sh.hi)
			}
			if rebalanced || drifted[i] {
				sh.publishFresh()
			}
		}
		s.ctr.CutReconciles.Add(1)
		if rebalanced {
			s.publishRouter()
			s.emitBarrierDelta(nil, true)
		}
	})
	if rebalance {
		s.lastReconcile = s.applied.Load()
	}
}

// maybeReleaseQuiescers answers pending Quiesce calls once the store is
// fully drained: no log backlog, no run in flight, no background
// checkpoint pending, no trigger pending. The shard logs are drained
// with an empty barrier before the final trigger evaluation, so the
// decision is made on fully-applied counters. (Waiting out the
// checkpoint keeps quiesced histories deterministic in their durability
// side effects — which checkpoints exist — not just their labels.)
func (s *Store) maybeReleaseQuiescers() {
	if len(s.quiescers) == 0 {
		return
	}
	if s.inflight || len(s.log) > 0 || s.queued > 0 || len(s.controlQ) > 0 || len(s.midrun) > 0 {
		return
	}
	if s.d != nil && s.d.pending {
		return
	}
	s.withBarrier(func() {})
	if s.shouldRestabilize() {
		return
	}
	err := s.Err()
	for _, q := range s.quiescers {
		q <- err
	}
	s.quiescers = nil
}
