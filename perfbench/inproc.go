package main

import (
	"errors"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/wal"
)

// The traced run hosts the serving layers in this process with the
// configuration spinnerd derives from the flags the untraced run passes
// (-k, -seed, -workers, -fsync, every other flag at its default), behind
// a wrapper handler that records one span per request.

// storeConfig mirrors spinnerd's serve.Config for the benchmark's flags;
// durable stores journal under the given fsync policy.
func storeConfig(seed uint64, durable bool, policy wal.Policy) serve.Config {
	cfg := serve.Config{
		Options:       core.Options{K: serverK, C: 1.05, Seed: seed, NumWorkers: runtime.NumCPU(), MaxIterations: 200},
		LogDepth:      64,
		DegradeFactor: 1.10,
		Shards:        min(runtime.GOMAXPROCS(0), 8),
		DeltaRing:     1024,
		Overload:      serve.OverloadConfig{Window: 100 * time.Millisecond},
	}
	if durable {
		cfg.Durability = serve.DurabilityConfig{
			Fsync:           policy,
			FsyncInterval:   50 * time.Millisecond,
			CheckpointEvery: 4096,
			KeepCheckpoints: 2,
		}
	}
	return cfg
}

// host is one in-process node: a store, its API server on a loopback
// listener, and (for a follower) the replication tail.
type host struct {
	st   *serve.Store
	fl   *replica.Follower
	mux  http.Handler
	srv  *http.Server
	addr string
	done chan struct{}
}

func (h *host) base() string { return "http://" + h.addr }

// hostLeader bootstraps a store from g (durable when dir is non-empty)
// and serves its API, wrapped by the tracer, on a loopback port.
func hostLeader(g *graph.Graph, seed uint64, dir string, policy wal.Policy, t *tracer) (*host, error) {
	var st *serve.Store
	var err error
	var rep *api.Replica
	if dir == "" {
		st, err = serve.Bootstrap(g, storeConfig(seed, false, policy))
	} else {
		st, err = serve.BootstrapDurable(dir, g, storeConfig(seed, true, policy))
		if err == nil {
			var ep replica.Epoch
			if ep, err = replica.LoadOrInitEpoch(dir); err != nil {
				st.Close()
			} else {
				rep = &api.Replica{Srv: replica.NewServer(st, dir, func() uint64 { return ep.Epoch })}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return serveHost(st, nil, rep, t)
}

// hostFollower starts a follower of leader in dir and serves its API.
func hostFollower(leader string, seed uint64, dir string, policy wal.Policy, t *tracer) (*host, error) {
	cfg := storeConfig(seed, true, policy)
	cfg.Shards = 0 // inherit the leader's layout, as spinnerd -follow does
	fl, err := replica.StartFollower(replica.FollowerConfig{Leader: leader, Dir: dir, Store: cfg})
	if err != nil {
		return nil, err
	}
	st := fl.Store()
	return serveHost(st, fl, &api.Replica{Fl: fl, Srv: replica.NewServer(st, dir, fl.Epoch)}, t)
}

func serveHost(st *serve.Store, fl *replica.Follower, rep *api.Replica, t *tracer) (*host, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if fl != nil {
			fl.Close()
		}
		st.Close()
		return nil, err
	}
	mux := api.NewServer(st, rep).Mux()
	h := &host{st: st, fl: fl, mux: mux, addr: l.Addr().String(), done: make(chan struct{})}
	h.srv = &http.Server{Handler: tracedHandler(t, mux)}
	go func() {
		defer close(h.done)
		if err := h.srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("in-process server: %v", err)
		}
	}()
	return h, nil
}

// close stops the listener and its connections (open watch streams
// included), then the follower tail, then the store.
func (h *host) close() {
	h.srv.Close()
	<-h.done
	if h.fl != nil {
		h.fl.Close()
	}
	h.st.Close()
}
