package replica

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

// Server is the leader side of the replication plane: it serves checkpoint
// bootstrap (GET /v1/replicate/checkpoint) and the live journal tail as
// a chunked stream (GET /v1/replicate?after_seq=N[&epoch=E]); api.Server
// mounts both routes. While a follower is connected, the Server pins the
// leader's journal retention at the lowest sequence any connected
// follower still needs, so checkpoint truncation cannot reclaim segments
// out from under the stream (the truncate-under-replication race).
type Server struct {
	st    *serve.Store
	dir   string
	epoch func() uint64

	// Tuning, settable before the first request (tests shorten these).
	Heartbeat  time.Duration // idle heartbeat period (default 500ms)
	Poll       time.Duration // journal poll interval (default 20ms)
	ChunkBytes int           // target records-frame size (default 256 KiB)

	mu        sync.Mutex
	followers map[int]uint64 // stream id → next sequence it needs
	nextID    int
}

// NewServer builds a leader endpoint over a durable store rooted at dir.
// epoch supplies the node's current fencing epoch per frame — a static
// closure on a bootstrap leader, the follower's live epoch on a promoted
// one (so a deposed-then-promoted chain keeps fencing correctly).
func NewServer(st *serve.Store, dir string, epoch func() uint64) *Server {
	return &Server{
		st:         st,
		dir:        dir,
		epoch:      epoch,
		Heartbeat:  500 * time.Millisecond,
		Poll:       20 * time.Millisecond,
		ChunkBytes: 256 << 10,
		followers:  make(map[int]uint64),
	}
}

// track registers a connected follower needing records from nextNeeded on
// and re-pins journal retention; advance and untrack keep it current. The
// pin is the min over connected followers, cleared when none remain.
func (s *Server) track(nextNeeded uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	s.followers[id] = nextNeeded
	s.applyRetentionLocked()
	return id
}

func (s *Server) advance(id int, nextNeeded uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.followers[id] = nextNeeded
	s.applyRetentionLocked()
}

func (s *Server) untrack(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.followers, id)
	s.applyRetentionLocked()
}

func (s *Server) applyRetentionLocked() {
	var floor uint64
	for _, seq := range s.followers {
		if floor == 0 || seq < floor {
			floor = seq
		}
	}
	s.st.SetJournalRetention(floor)
}

// ServeCheckpoint streams the leader's latest checkpoint payload for
// follower bootstrap; X-Replica-Epoch and X-Checkpoint-Seq headers carry
// the fencing epoch and the sequence the payload covers through.
func (s *Server) ServeCheckpoint(w http.ResponseWriter, r *http.Request) {
	seq, payload, err := wal.LatestCheckpoint(serve.CheckpointDir(s.dir))
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Replica-Epoch", strconv.FormatUint(s.epoch(), 10))
	w.Header().Set("X-Checkpoint-Seq", strconv.FormatUint(seq, 10))
	w.Write(payload)
}

// ServeStream handles GET /v1/replicate?after_seq=N[&epoch=E]: a chunked
// stream opening with a handshake frame and then pushing records frames
// as the journal grows, heartbeats when it is idle. An epoch parameter
// that does not match the node's current epoch is refused with 409 (the
// follower is fenced off or talking to the wrong incarnation); a
// truncated journal that no longer holds after_seq+1 is refused with 410
// (the follower must re-bootstrap from a checkpoint). The stream ends
// when the client disconnects or the node's epoch changes under it.
func (s *Server) ServeStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after, err := strconv.ParseUint(q.Get("after_seq"), 10, 64)
	if err != nil {
		http.Error(w, "bad after_seq", http.StatusBadRequest)
		return
	}
	epoch := s.epoch()
	if es := q.Get("epoch"); es != "" {
		want, err := strconv.ParseUint(es, 10, 64)
		if err != nil {
			http.Error(w, "bad epoch", http.StatusBadRequest)
			return
		}
		if want != epoch {
			w.Header().Set("X-Replica-Epoch", strconv.FormatUint(epoch, 10))
			http.Error(w, fmt.Sprintf("epoch %d, want %d", epoch, want), http.StatusConflict)
			return
		}
	}
	jdir := serve.JournalDir(s.dir)
	frames, first, last, err := wal.ReadFramesAfter(jdir, after, s.ChunkBytes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if first != 0 && first > after+1 {
		// The journal starts past the follower's position: truncated
		// below it before this stream could pin retention.
		http.Error(w, fmt.Sprintf("journal starts at seq %d, follower needs %d", first, after+1), http.StatusGone)
		return
	}
	id := s.track(after + 1)
	defer s.untrack(id)

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Replica-Epoch", strconv.FormatUint(epoch, 10))
	w.WriteHeader(http.StatusOK)

	ctr := s.st.Counters()
	send := func(f Frame) bool {
		buf := AppendFrame(nil, f)
		if _, err := w.Write(buf); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		ctr.ReplicaFramesSent.Add(1)
		ctr.ReplicaBytesSent.Add(int64(len(buf)))
		return true
	}
	if !send(Frame{Kind: FrameHandshake, Epoch: epoch, LeaderSeq: s.st.JournalSeq()}) {
		return
	}
	lastBeat := time.Now()
	for {
		if len(frames) > 0 {
			if !send(Frame{Kind: FrameRecords, Epoch: epoch, LeaderSeq: s.st.JournalSeq(), Records: frames}) {
				return
			}
			after = last
			s.advance(id, after+1)
			lastBeat = time.Now()
		} else if time.Since(lastBeat) >= s.Heartbeat {
			if !send(Frame{Kind: FrameHeartbeat, Epoch: epoch, LeaderSeq: s.st.JournalSeq()}) {
				return
			}
			lastBeat = time.Now()
		}
		if s.epoch() != epoch {
			return // deposed under this stream; end it so the client re-handshakes
		}
		if s.st.JournalSeq() <= after {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(s.Poll):
			}
		} else if r.Context().Err() != nil {
			return
		}
		frames, first, last, err = wal.ReadFramesAfter(jdir, after, s.ChunkBytes)
		if err != nil || (first != 0 && first > after+1) {
			return // corruption or gap mid-stream: drop; the client rehandshakes
		}
	}
}
