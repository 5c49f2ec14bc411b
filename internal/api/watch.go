package api

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// watchBatch bounds the deltas fetched (and written) per iteration so a
// far-behind consumer streams in chunks instead of one giant write.
const watchBatch = 256

// watchBufPool recycles the per-stream gather buffers: each stream
// holds one buffer only while it is actively writing a batch, so at
// 10k mostly-idle streams the pool keeps the steady-state footprint at
// roughly (active writers × batch size) instead of (streams × batch
// size) grow-only buffers.
var watchBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// handleWatch serves GET /v1/watch?from_seq=N — a chunked stream of
// delta frames starting at sequence N+1 (from_seq names the last delta
// the consumer has applied; 0 = from the beginning, whose first delta is
// the baseline full-label record). The stream long-polls: while the
// consumer is caught up the server parks on a per-stream delta
// subscription (coalesced single-slot wakeups; no thundering herd) and
// emits heartbeat frames so the consumer can see the floor advance.
//
// Fan-out is encode-once: the frames written here are the immutable
// bytes memoized by the delta hub at publish time, shared by every
// stream — the per-stream cost is a copy into a pooled gather buffer
// and one chunked write, never an encode or a CRC.
//
// 410 Gone answers a cursor the ring can no longer serve — either
// compacted (N+1 below the floor) or reset (N ahead of the newest
// sequence, i.e. minted by a previous server incarnation); both mean
// "full resync via /v1/lookup, then re-watch from the returned
// from_seq". A cursor that compaction overruns mid-stream gets a final
// serve.WatchEnd frame carrying the new floor, so the consumer can tell
// "fell behind, resync" from a dropped connection.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after := uint64(0)
	if raw := q.Get("from_seq"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad from_seq")
			return
		}
		after = v
	}
	// limit caps the delta frames delivered before the server closes the
	// stream (0 = stream forever) — for consumers that want a bounded
	// catch-up read rather than a subscription.
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = v
	}

	floor, next := s.feed.DeltaBounds()
	if after+1 < floor {
		writeErrorCode(w, http.StatusGone, "compacted",
			fmt.Sprintf("delta %d compacted away (floor %d); full resync required", after+1, floor), 0)
		return
	}
	if after >= next {
		writeErrorCode(w, http.StatusGone, "reset",
			fmt.Sprintf("from_seq %d is ahead of the newest delta %d (server restarted?); full resync required", after, next-1), 0)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// WatchStreams is a gauge of open streams; WatchStreamsTotal counts
	// every accepted stream for rate math across scrapes.
	ctr := s.st.Counters()
	ctr.WatchStreams.Add(1)
	ctr.WatchStreamsTotal.Add(1)
	defer ctr.WatchStreams.Add(-1)

	sub := s.feed.SubscribeDeltas()
	defer sub.Cancel()

	bufp := watchBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() {
		// Return the (possibly grown) buffer, not the original backing.
		*bufp = buf[:0]
		watchBufPool.Put(bufp)
	}()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Delta-Floor", strconv.FormatUint(floor, 10))
	w.Header().Set("X-Delta-Next", strconv.FormatUint(next, 10))
	w.WriteHeader(http.StatusOK)
	buf = serve.AppendWatchFrame(buf, serve.WatchFrame{Kind: serve.WatchHandshake, Floor: floor, Next: next})
	if _, err := w.Write(buf); err != nil {
		return
	}
	flusher.Flush()
	ctr.WatchBytesSent.Add(int64(len(buf)))

	heartbeat := s.Heartbeat
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	// Go 1.23+ timers (go.mod declares 1.24) discard a pending tick on
	// Stop and Reset, so re-arming never sees a stale expiry.
	hb := time.NewTimer(heartbeat)
	defer hb.Stop()
	ctx := r.Context()
	sent := 0
	for {
		fds, _ := s.feed.FramedDeltasSince(after, watchBatch)
		if len(fds) > 0 {
			if fds[0].Delta.Seq != after+1 {
				// Compaction overtook the cursor mid-stream (the consumer
				// fell behind a full ring). Say so with a typed end frame
				// carrying the new bounds — the client distinguishes
				// "resync required" from a dropped connection — then end
				// the stream; the /v1/lookup resync path takes over.
				f, n := s.feed.DeltaBounds()
				buf = serve.AppendWatchFrame(buf[:0], serve.WatchFrame{Kind: serve.WatchEnd, Floor: f, Next: n})
				if _, err := w.Write(buf); err != nil {
					return
				}
				flusher.Flush()
				ctr.WatchBytesSent.Add(int64(len(buf)))
				return
			}
			buf = buf[:0]
			last := 0
			for i := range fds {
				buf = append(buf, fds[i].Frame...)
				after = fds[i].Delta.Seq
				last = i
				sent++
				if limit > 0 && sent >= limit {
					break
				}
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
			flusher.Flush()
			ctr.WatchBytesSent.Add(int64(len(buf)))
			if d := fds[last].Elapsed(); d > 0 {
				s.fanoutHist.Record(d)
			}
			if limit > 0 && sent >= limit {
				return
			}
			continue
		}
		// A wakeup that raced the ring read is already pending: loop
		// straight back to the read without re-arming the heartbeat
		// timer (skipping the Reset matters at publication rates where
		// the slot is almost always full).
		select {
		case <-sub.C():
			continue
		default:
		}
		hb.Reset(heartbeat)
		select {
		case <-ctx.Done():
			return
		case <-sub.C():
		case <-hb.C:
			f, n := s.feed.DeltaBounds()
			buf = serve.AppendWatchFrame(buf[:0], serve.WatchFrame{Kind: serve.WatchHeartbeat, Floor: f, Next: n})
			if _, err := w.Write(buf); err != nil {
				return
			}
			flusher.Flush()
			ctr.WatchBytesSent.Add(int64(len(buf)))
		}
	}
}
