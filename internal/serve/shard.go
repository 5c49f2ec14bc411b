package serve

import (
	"sync/atomic"

	"repro/internal/graph"
)

// batchTracker counts down the shards working one broadcast — a single
// submitted batch or a coalesced run of them; the shard finishing last
// resolves every batch the broadcast carried.
type batchTracker struct {
	remaining atomic.Int32
	batches   int64 // submitted batches riding this broadcast
	edges     int64 // their total edge count
}

// barrier synchronizes the coordinator with every shard: each shard acks
// and parks until resume closes, handing the coordinator exclusive access
// to all shard-owned state (labels, adjacency rows, cut counters). An
// optional work step runs in each shard goroutine before the ack — the
// hook the parallel reconcile pass uses to recompute per-shard counters
// inside the shards instead of serially on the coordinator. Work running
// in shard A may overlap shard B still applying earlier entries, which is
// safe for reads of A's own rows (single writer per row range) and of the
// labels (frozen outside barriers).
type barrier struct {
	ack    chan struct{}
	resume chan struct{}
	work   func(*shard)
}

// shardEntry is one unit of shard work: a broadcast of one or more
// coalesced fast-path batches (sent to every shard; each picks out the
// arcs whose rows it owns) or a barrier.
type shardEntry struct {
	muts    []*graph.Mutation // read-only; shared by all shards
	tracker *batchTracker
	barrier *barrier
}

// shardSnap is the immutable per-shard snapshot readers resolve against
// and the store composes into the global view. labels[i] is the label of
// vertex lo+i. On the fast path labels never change, so successive
// snapshots share one label slice; relabeling events publish fresh copies
// under a barrier.
//
// version is the publication stamp, drawn from the store-wide pubSeq
// counter: unique per publication and rising in publication order across
// all shards. A vertex that moves to another shard (rebalance) is picked
// up by a snapshot published after every old-owner snapshot that covered
// it, so the stamp a reader sees for one vertex never falls.
type shardSnap struct {
	lo      int
	labels  []int32
	k       int
	epoch   uint64
	version uint64
	pubGen  uint64  // label generation; bumped by every barrier relabel
	cross   int64   // cut weight of the edges this shard owns
	total   int64   // total weight of the edges this shard owns
	perPart []int64 // per-partition external weight of owned cut edges
}

func (sn *shardSnap) lookup(v graph.VertexID) (int32, bool) {
	i := int(v) - sn.lo
	if i < 0 || i >= len(sn.labels) {
		return -1, false
	}
	return sn.labels[i], true
}

// shard owns a contiguous vertex range: the adjacency rows of the shared
// graph in [lo, hi), and the incremental cut counters of the edges it owns
// (an undirected edge {u,v} with u < v belongs to the shard whose range
// contains u). Between barriers the shard goroutine is the sole writer of
// this state and the shared label slice is frozen, so locality tests need
// no synchronization; during a barrier the parked shard cedes everything
// to the coordinator.
type shard struct {
	st *Store
	id int

	log  chan shardEntry
	done chan struct{}

	w       *graph.Weighted
	labels  []int32 // authoritative global labels; written only under barrier
	lo, hi  int
	k       int
	epoch   uint64
	pubGen  uint64
	cross   int64
	total   int64
	perPart []int64
	dEdges  int64 // owned edges inserted since the last barrier fold
	dWeight int64 // their total weight
	dirty   bool  // counters changed since the last publication

	snap atomic.Pointer[shardSnap]
}

func (sh *shard) run() {
	defer close(sh.done)
	for e := range sh.log {
		if e.barrier != nil {
			if sh.dirty {
				sh.publishDelta() // coalesced counters must land first
			}
			if e.barrier.work != nil {
				e.barrier.work(sh)
			}
			e.barrier.ack <- struct{}{}
			<-e.barrier.resume
			continue
		}
		sh.apply(e)
	}
}

// apply lands one broadcast of coalesced fast-path batches: the shard
// scans each (coordinator-validated, shared, read-only) edge list,
// inserts the arcs whose rows it owns, and folds O(batch) cut-counter
// deltas for the edges it owns (lower endpoint in range) — the
// incremental replacement for the seed's exact O(E) recompute per swap.
// A multi-batch broadcast pays the queue hop, the counter fold and the
// snapshot publication once for the whole run. Scanning in the shard
// rather than routing in the coordinator keeps the serial per-batch work
// O(1)+send, so adding shards scales the heavy part (row appends,
// cache-missing label reads).
func (sh *shard) apply(e shardEntry) {
	lo, hi := graph.VertexID(sh.lo), graph.VertexID(sh.hi)
	touched := false
	for _, m := range e.muts {
		owned := false
		for _, ed := range m.NewEdges {
			u, v, wgt := ed.U, ed.V, ed.Weight
			if wgt <= 0 {
				wgt = 1
			}
			if u > v {
				u, v = v, u
			}
			if u >= lo && u < hi {
				sh.w.InsertArc(u, v, wgt)
				owned = true
				w64 := int64(wgt)
				sh.total += w64
				sh.dEdges++
				sh.dWeight += w64
				if lu, lv := sh.labels[u], sh.labels[v]; lu != lv {
					sh.cross += w64
					sh.perPart[lu] += w64
					sh.perPart[lv] += w64
				}
			}
			if v >= lo && v < hi {
				sh.w.InsertArc(v, u, wgt)
				owned = true
			}
		}
		if owned {
			touched = true
			sh.st.ctr.ShardBatches.Add(1)
		}
	}
	if touched {
		// Coalesce publication under burst: when more work is already
		// queued, fold these counters into the next publication — the
		// snapshot a reader misses here is at most one log turn stale,
		// and a pending barrier flushes before parking.
		sh.dirty = true
		if len(sh.log) == 0 {
			sh.publishDelta()
		}
	}
	if e.tracker.remaining.Add(-1) == 0 {
		sh.st.finishBatch(e.tracker)
	}
}

// publishDelta swaps in a snapshot that reuses the previous label copy —
// the fast path never relabels, so publication costs O(k), independent of
// the range size.
func (sh *shard) publishDelta() {
	prev := sh.snap.Load()
	sh.dirty = false
	sh.snap.Store(&shardSnap{
		lo: sh.lo, labels: prev.labels, k: sh.k, epoch: sh.epoch,
		version: sh.st.pubSeq.Add(1), pubGen: sh.pubGen, cross: sh.cross, total: sh.total,
		perPart: append([]int64(nil), sh.perPart...),
	})
	sh.st.ctr.SnapshotSwaps.Add(1)
}

// publishFresh copies the label segment. Coordinator-only, under a
// barrier, after any relabeling or range change.
func (sh *shard) publishFresh() {
	sh.dirty = false
	seg := make([]int32, sh.hi-sh.lo)
	copy(seg, sh.labels[sh.lo:sh.hi])
	sh.snap.Store(&shardSnap{
		lo: sh.lo, labels: seg, k: sh.k, epoch: sh.epoch,
		version: sh.st.pubSeq.Add(1), pubGen: sh.pubGen, cross: sh.cross, total: sh.total,
		perPart: append([]int64(nil), sh.perPart...),
	})
	sh.st.ctr.SnapshotSwaps.Add(1)
}

// routeTable is the immutable vertex→shard router, swapped atomically when
// the vertex space grows or shard boundaries rebalance. Readers take one
// atomic load of the table and one of the target shard's snapshot; both
// sides bounds-check, so a reader interleaving with a republication sees a
// miss rather than an inconsistent label.
type routeTable struct {
	n      int
	bounds []int // len(shards)+1; shard i owns [bounds[i], bounds[i+1])
	shards []*shard
}

func (rt *routeTable) shardOf(v graph.VertexID) *shard {
	return rt.shards[rangeIndex(rt.bounds, v)]
}

// rangeIndex returns i such that bounds[i] <= v < bounds[i+1], clamping
// out-of-range v into the nearest shard (callers bounds-check separately).
// Shard counts are small (≈ core count), so a linear scan beats a binary
// search on the routing hot path.
func rangeIndex(bounds []int, v graph.VertexID) int {
	last := len(bounds) - 2
	for i := 0; i < last; i++ {
		if int(v) < bounds[i+1] {
			return i
		}
	}
	return last
}
