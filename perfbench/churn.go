package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/api/client"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

const (
	// writeRefShare of the budget is the write reference phase: for
	// --seconds 10, 2000 batches (500 markers) at the churn rate and
	// 1000 (250 markers) at the replicate rate.
	writeRefShare = 0.667
	// The write workloads' rate is the median of bursts write bursts of
	// burstBatches batches each.
	bursts       = 5
	burstBatches = 1000
	// markerWait bounds the wait for the feed to show a phase's last
	// marker.
	markerWait = 15 * time.Second
)

// writeRun is what the write workloads measured through one feed.
type writeRun struct {
	ref           *churnPhase
	visible       latencies // reference-phase markers, due → visible on the feed
	steal         []float64 // host steal share by window of the reference phase
	phi           float64   // time-averaged feed locality over the reference phase
	maxRate       float64   // the rate search's result (traced runs only)
	burstRate     float64   // median burst throughput to the feed
	steps         []searchStep
	misses        int
	logFullRef    int
	before, after scrape // leader, around the reference phase
	fBefore       scrape // follower, around the reference phase (replicate)
	fAfter        scrape
}

// measureWrites runs the write workloads' reference phase, and then the
// rate search when search is set. Writes go through d to the leader;
// visibility is read off f, the leader's feed (churn) or the follower's
// (replicate, where fc is the follower's client).
func measureWrites(b *bench, d *churnDriver, f *feed, lc, fc *client.Client, rate float64, search bool) (*writeRun, error) {
	ctx := context.Background()
	d.phase(rate, 300*time.Millisecond) // warm-up
	f.waitIdle(100*time.Millisecond, 2*time.Second)
	wr := &writeRun{}
	var err error
	if wr.before, err = scrapeMetrics(ctx, lc); err != nil {
		return nil, err
	}
	if fc != nil {
		if wr.fBefore, err = scrapeMetrics(ctx, fc); err != nil {
			return nil, err
		}
	}
	lf0 := d.logFull
	refSteal := watchSteal(b.refDur(writeRefShare))
	wr.ref = d.phase(rate, b.refDur(writeRefShare))
	wr.steal = refSteal()
	wr.logFullRef = d.logFull - lf0
	// A marker the feed shows late is a latency sample, not a loss; only
	// one still missing after this wait counts as unseen.
	f.waitN(d.g.NumVertices(), markerWait)
	if wr.after, err = scrapeMetrics(ctx, lc); err != nil {
		return nil, err
	}
	if fc != nil {
		if wr.fAfter, err = scrapeMetrics(ctx, fc); err != nil {
			return nil, err
		}
	}
	var unseen int
	wr.visible, unseen = f.visible(wr.ref.markers)
	wr.phi = f.phi(wr.ref.start, wr.ref.end)
	rejected := int(delta(wr.before, wr.after, "spinner_batches_rejected_total"))
	b.count(wr.ref.lat.n(), wr.ref.failed+unseen+rejected)
	calm := calmHalf(wr.visible, wr.steal)
	logf("reference %s; lookups p50=%.2fms; visible n=%d p50=%.2fms p90=%.2fms unseen=%d rejected=%d log_full=%d phi=%.4f; steal by window %.3f; calm-half visible p50=%.2fms",
		wr.ref, wr.ref.lookups.q(0.5), wr.visible.n(), wr.visible.q(0.5), wr.visible.q(0.9), unseen, rejected, wr.logFullRef, wr.phi, wr.steal, calm.q(0.5))
	if d.opErr != nil {
		logf("first failed request: %v", d.opErr)
	}
	if !search {
		return wr, nil
	}
	// The highest batch rate whose probe keeps the p90 of marker
	// visibility within the limit, counting every refused batch (each
	// 429 log_full, though the batch is retried) and unseen marker as a
	// miss, with no growing lateness; reported as the batch throughput
	// that probe achieved.
	achieved := map[float64]float64{}
	startPassed := probePasses(wr.visible, wr.ref.failed+wr.logFullRef, wr.ref.late, visibleLimitMS)
	if startPassed {
		achieved[rate] = wr.ref.achieved
	}
	maxRate, steps := searchMaxRate(rate, searchGrowth, searchRes, b.searchSteps(), startPassed, confirmed(func(r float64) bool {
		f.waitIdle(100*time.Millisecond, 2*time.Second)
		// At least 400 batches (100 markers), so 10 lie beyond the p90.
		lf := d.logFull
		p := d.phase(r, time.Duration(max(1, 400/r)*float64(time.Second)))
		f.waitN(d.g.NumVertices(), 2*time.Second)
		vis, u := f.visible(p.markers)
		refused := d.logFull - lf
		wr.misses += p.failed + refused + u
		ok := probePasses(vis, p.failed+refused, p.late, visibleLimitMS)
		if ok {
			achieved[r] = p.achieved
		}
		logf("search %s; visible n=%d p90=%.2fms unseen=%d pass=%v", p, vis.n(), vis.q(0.9), u, ok)
		return ok
	}))
	wr.maxRate, wr.steps = achieved[maxRate], steps
	logf("max write rate %.0f batches/s (achieved %.0f/s) after %d probes", maxRate, wr.maxRate, len(steps))
	return wr, nil
}

// writeE2E fills the end-to-end metrics the write workloads share.
func (b *bench) writeE2E(wr *writeRun) {
	calm := calmHalf(wr.visible, wr.steal)
	b.e2e["p50_ms"] = calm.q(0.5)
	b.e2e["rate"] = wr.burstRate
	b.e2e["phi"] = wr.phi
}

// writeLayers fills the per-layer metrics read from the leader's
// /v1/metrics around the reference phase (and, for checkpoints, around
// the whole run, since they are rare).
func (b *bench) writeLayers(wr *writeRun, runBefore, runAfter scrape) {
	l := b.layer
	loadMetrics(l, wr.visible, wr.ref.late, wr.steps, wr.misses)
	l["load.max_write_rate"] = wr.maxRate
	bf, af := wr.before, wr.after
	batches := max(1, delta(bf, af, "spinner_batches_applied_total"))
	per := func(name string) float64 { return delta(bf, af, name) / batches }
	hist := func(s1, s2 scrape, name, stage string, q, scale float64) float64 {
		var match map[string]string
		if stage != "" {
			match = map[string]string{"stage": stage}
		}
		v, _ := histDelta(s1, s2, name, match, q)
		return v * scale
	}
	const stageHist = "spinner_stage_duration_seconds"
	restabs := delta(bf, af, "spinner_restabilizations_total")
	l["serve.restabs_per_kbatch"] = 1000 * restabs / batches
	if restabs > 0 {
		l["serve.migrated_per_restab"] = delta(bf, af, "spinner_migrated_vertices_total") / restabs
	}
	l["serve.midrun_snapshots"] = delta(bf, af, "spinner_midrun_snapshots_total")
	l["serve.stage_drain_p99_us"] = hist(bf, af, stageHist, "drain", 0.99, 1e6)
	l["serve.stage_apply_p50_us"] = hist(bf, af, stageHist, "apply", 0.5, 1e6)
	l["serve.stage_apply_p99_us"] = hist(bf, af, stageHist, "apply", 0.99, 1e6)
	l["serve.stage_publish_p99_us"] = hist(bf, af, stageHist, "publish", 0.99, 1e6)
	l["serve.coalesce_ratio"] = per("spinner_coalesced_batches_total")
	l["serve.deltas_per_batch"] = per("spinner_deltas_published_total")
	l["serve.log_full_ratio"] = float64(wr.logFullRef) / float64(max(1, wr.ref.lat.n()))
	l["serve.rejected_batches"] = delta(bf, af, "spinner_batches_rejected_total")
	if lk := delta(bf, af, "spinner_lookups_total"); lk > 0 {
		l["serve.staleness_batches"] = delta(bf, af, "spinner_lookup_staleness_batches_total") / lk
	}
	l["serve.cut_drift"] = delta(runBefore, runAfter, "spinner_cut_drift_total")
	l["client.churn_lookup_p50_ms"] = wr.ref.lookups.q(0.5)
	l["client.churn_lookup_p99_ms"] = wr.ref.lookups.q(0.99)
	l["api.watch_fanout_p99_us"] = hist(bf, af, "spinner_watch_fanout_duration_seconds", "", 0.99, 1e6)
	l["api.watch_bytes_per_batch"] = per("spinner_watch_bytes_sent_total")

	l["wal.stage_journal_p50_us"] = hist(bf, af, stageHist, "journal", 0.5, 1e6)
	l["wal.stage_journal_p99_us"] = hist(bf, af, stageHist, "journal", 0.99, 1e6)
	if gc := delta(bf, af, "spinner_group_commits_total"); gc > 0 {
		l["wal.group_depth"] = delta(bf, af, "spinner_grouped_entries_total") / gc
	}
	l["wal.syncs_per_batch"] = per("spinner_journal_syncs_total")
	l["wal.journal_bytes_per_batch"] = per("spinner_journal_bytes_total")
	runBatches := max(1, delta(runBefore, runAfter, "spinner_batches_applied_total"))
	l["wal.checkpoint_bytes_per_batch"] = delta(runBefore, runAfter, "spinner_checkpoint_bytes_total") / runBatches
	l["wal.checkpoint_capture_p99_ms"] = hist(runBefore, runAfter, stageHist, "checkpoint_capture", 0.99, 1e3)
	l["wal.checkpoint_write_p99_ms"] = hist(runBefore, runAfter, stageHist, "checkpoint_write", 0.99, 1e3)
}

func runChurn(b *bench) error {
	path, w, err := writeGraph(b, churnN)
	if err != nil {
		return err
	}
	dataDir := b.path("data")
	args := b.serverArgs(path, "-data-dir", dataDir, "-fsync", "always")
	var srv *server
	err = b.setUp(func() (d time.Duration, err error) {
		srv, d, err = startServer(b.spinnerd, b.path("spinnerd.log"), args...)
		return d, err
	}, func() {
		srv.kill()
		os.RemoveAll(dataDir)
	})
	if err != nil {
		return err
	}
	defer func() { srv.stop() }()
	ctx := context.Background()
	wc, fc := newClient(srv.base(), nil), newClient(srv.base(), nil)
	f, err := startFeed(fc)
	if err != nil {
		return err
	}
	defer f.stop()
	runBefore, err := scrapeMetrics(ctx, wc)
	if err != nil {
		return err
	}
	d := newChurnDriver(wc, nil, w, b.seed)
	cpu0, _ := cpuSeconds(srv.cmd.Process.Pid)
	// The rate search runs in the traced run only: near the write path's
	// knee a probe passes or fails by chance, so its result swung by half
	// between runs; the end-to-end rate is the bursts' throughput.
	wr, err := measureWrites(b, d, f, wc, nil, churnRef, b.trace == 1)
	if err != nil {
		return err
	}
	cpu1, _ := cpuSeconds(srv.cmd.Process.Pid)
	if wr.burstRate, err = burstRate(b, d, f); err != nil {
		return err
	}

	// Gates on the settled state: feed == dump, every marker visible,
	// the local copy matches the served vertex set, no cut drift.
	b.gate(d.errs)
	b.gate(f.converged(wc, 15*time.Second))
	dump, err := wc.LookupAll(ctx)
	if err != nil {
		return fmt.Errorf("full dump: %w", err)
	}
	b.count(1, 0)
	_, feedN, _ := f.state()
	b.gate(checkMarkers("churn", len(d.markers), max(0, w.NumVertices()-feedN)))
	b.gate(checkLabels("served labels", dump.Labels, w.NumVertices(), serverK))
	runAfter, err := scrapeMetrics(ctx, wc)
	if err != nil {
		return err
	}
	b.gate(checkNoIncrease("spinner_cut_drift_total", runBefore.value("spinner_cut_drift_total", nil), runAfter.value("spinner_cut_drift_total", nil)))
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	b.writeE2E(wr)
	b.e2e["rho"] = metrics.Rho(w, dump.Labels, serverK)
	b.e2e["peak_rss_mb"] = rss
	b.e2e["ok_ratio"] = 1 - failureRatio(b.attempted, b.failed)

	// Crash and recover on the same data dir.
	stats, err := wc.Stats(ctx)
	if err != nil {
		return err
	}
	disk, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	f.stop()
	srv.kill()
	srv, recovery, err := startServer(b.spinnerd, b.path("spinnerd.log"), args...)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	rc := newClient(srv.base(), nil)
	stats2, err := rc.Stats(ctx)
	if err != nil {
		return err
	}
	recovered, err := scrapeMetrics(ctx, rc)
	if err != nil {
		return err
	}
	b.gate(checkRecovered(stats.Vertices, stats2.Vertices, stats.Applied, stats2.Applied))
	b.gate(checkNoIncrease("spinner_cut_drift_total after recovery", 0, recovered.value("spinner_cut_drift_total", nil)))
	logf("recovered in %.3fs: vertices %d→%d applied %d→%d replayed %g", recovery.Seconds(),
		stats.Vertices, stats2.Vertices, stats.Applied, stats2.Applied, recovered.value("spinner_replayed_records_total", nil))
	if b.trace == 0 {
		return nil
	}

	b.writeLayers(wr, runBefore, runAfter)
	l := b.layer
	l["serve.cpu_us_per_op"] = (cpu1 - cpu0) * 1e6 / float64(2*max(1, d.batches))
	l["wal.replayed_records"] = recovered.value("spinner_replayed_records_total", nil)
	l["wal.recovery_s"] = recovery.Seconds()
	l["wal.disk_bytes_per_batch"] = float64(disk) / float64(max(1, stats.Applied))
	return tracedWrites(b, path, wr, false)
}

func runReplicate(b *bench) error {
	path, w, err := writeGraph(b, churnN)
	if err != nil {
		return err
	}
	lDir, fDir := b.path("leader"), b.path("follower")
	var leader, follower *server
	var boots []float64
	err = b.setUp(func() (time.Duration, error) {
		var d1, d2 time.Duration
		var err error
		leader, d1, err = startServer(b.spinnerd, b.path("leader.log"), b.serverArgs(path, "-data-dir", lDir)...)
		if err != nil {
			return 0, err
		}
		follower, d2, err = startServer(b.spinnerd, b.path("follower.log"), b.serverArgs(path,
			"-data-dir", fDir, "-follow", leader.addr)...)
		if err != nil {
			leader.kill()
			leader = nil
			return 0, err
		}
		boots = append(boots, d2.Seconds())
		return d1 + d2, nil
	}, func() {
		follower.kill()
		leader.kill()
		os.RemoveAll(lDir)
		os.RemoveAll(fDir)
	})
	if err != nil {
		return err
	}
	defer func() {
		follower.stop()
		leader.stop()
	}()
	ctx := context.Background()
	lc, fc, wc := newClient(leader.base(), nil), newClient(follower.base(), nil), newClient(follower.base(), nil)
	f, err := startFeed(wc)
	if err != nil {
		return err
	}
	defer f.stop()
	runBefore, err := scrapeMetrics(ctx, fc)
	if err != nil {
		return err
	}
	d := newChurnDriver(lc, nil, w, b.seed)
	wr, err := measureWrites(b, d, f, lc, fc, replicateRef, false)
	if err != nil {
		return err
	}
	// Replication throughput: bursts into the leader, timed on the
	// follower's feed.
	if wr.burstRate, err = burstRate(b, d, f); err != nil {
		return err
	}

	b.gate(d.errs)
	lstats, err := lc.Stats(ctx)
	if err != nil {
		return err
	}
	b.gate(waitCaughtUp(fc, lstats.AppliedSeq, 15*time.Second))
	b.gate(f.converged(fc, 15*time.Second))
	fdump, err := fc.LookupAll(ctx)
	if err != nil {
		return fmt.Errorf("follower dump: %w", err)
	}
	ldump, err := lc.LookupAll(ctx)
	if err != nil {
		return fmt.Errorf("leader dump: %w", err)
	}
	b.count(2, 0)
	_, feedN, _ := f.state()
	b.gate(checkMarkers("replicate", len(d.markers), max(0, w.NumVertices()-feedN)))
	b.gate(checkLabels("follower labels", fdump.Labels, w.NumVertices(), serverK))
	runAfter, err := scrapeMetrics(ctx, fc)
	if err != nil {
		return err
	}
	b.gate(checkNoIncrease("follower spinner_replica_reconnects_total",
		runBefore.value("spinner_replica_reconnects_total", nil), runAfter.value("spinner_replica_reconnects_total", nil)))
	b.gate(checkNoIncrease("follower spinner_cut_drift_total",
		runBefore.value("spinner_cut_drift_total", nil), runAfter.value("spinner_cut_drift_total", nil)))
	rssL, err := peakRSSMB(leader.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rssF, err := peakRSSMB(follower.cmd.Process.Pid)
	if err != nil {
		return err
	}
	b.writeE2E(wr)
	b.e2e["rho"] = metrics.Rho(w, fdump.Labels, serverK)
	b.e2e["peak_rss_mb"] = rssL + rssF
	b.e2e["ok_ratio"] = 1 - failureRatio(b.attempted, b.failed)
	if b.trace == 0 {
		return nil
	}

	l := b.layer
	b.writeLayers(wr, wr.before, wr.after)
	batches := max(1, delta(wr.before, wr.after, "spinner_batches_applied_total"))
	l["replica.bootstrap_s"] = median(boots)
	l["replica.bytes_per_batch"] = delta(wr.before, wr.after, "spinner_replica_bytes_sent_total") / batches
	l["replica.records_applied"] = delta(wr.fBefore, wr.fAfter, "spinner_replica_records_applied_total")
	l["replica.reconnects"] = runAfter.value("spinner_replica_reconnects_total", nil)
	if v, ok := histDelta(wr.fBefore, wr.fAfter, "spinner_stage_duration_seconds", map[string]string{"stage": "journal"}, 0.99); ok {
		l["replica.follower_journal_p99_us"] = v * 1e6
	}
	if v, ok := histDelta(wr.fBefore, wr.fAfter, "spinner_stage_duration_seconds", map[string]string{"stage": "apply"}, 0.99); ok {
		l["replica.follower_apply_p99_us"] = v * 1e6
	}
	l["replica.label_difference"] = metrics.Difference(ldump.Labels, fdump.Labels)
	// The follower's own lag histogram, for comparison with the lag
	// measured from outside above.
	logf("follower spinner_replica_apply_lag_records_count=%g while it applied %g records",
		delta(wr.fBefore, wr.fAfter, "spinner_replica_apply_lag_records_count"), l["replica.records_applied"])
	return tracedWrites(b, path, wr, true)
}

// burstRate measures write throughput as seen on the feed f: bursts
// closed-loop bursts of burstBatches batches through d, each timed from
// its first send until f shows its last batch. It returns the median
// rate in batches per unstolen second (see stealMeter).
func burstRate(b *bench, d *churnDriver, f *feed) (float64, error) {
	var rates []float64
	for range bursts {
		f.waitIdle(200*time.Millisecond, 5*time.Second)
		m := newStealMeter()
		start, err := d.burst(burstBatches)
		if err != nil {
			return 0, err
		}
		b.count(burstBatches, 0)
		f.waitN(d.g.NumVertices(), 30*time.Second)
		unstolen := m.unstolen()
		at, ok := f.coveredAt(d.g.NumVertices() - 1)
		if !ok {
			return 0, fmt.Errorf("burst never became visible on the feed")
		}
		raw := burstBatches / at.Sub(start).Seconds()
		rates = append(rates, raw/unstolen)
		logf("burst of %d batches visible on the feed after %.3fs: %.0f batches/s; %.1f%% of host CPU stolen, %.0f batches per unstolen second",
			burstBatches, at.Sub(start).Seconds(), raw, 100*(1-unstolen), rates[len(rates)-1])
	}
	return median(rates), nil
}

// waitCaughtUp polls the follower until its applied sequence reaches
// seq, and fails the replication gate after limit.
func waitCaughtUp(fc *client.Client, seq uint64, limit time.Duration) error {
	var applied uint64
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		s, err := fc.Stats(context.Background())
		if err != nil {
			return fmt.Errorf("follower stats: %w", err)
		}
		if applied = s.AppliedSeq; applied >= seq {
			return nil
		}
	}
	return checkCaughtUp(applied, seq)
}

// tracedWrites repeats the reference phase of a write workload against
// the layers hosted in-process (a durable leader, plus a follower for
// replicate), with a span per client call and per handler call.
func tracedWrites(b *bench, path string, untraced *writeRun, replicate bool) error {
	g, err := readGraph(path)
	if err != nil {
		return err
	}
	copyG := graph.Convert(g)
	t := newTracer()
	policy := wal.SyncAlways
	if replicate {
		policy = wal.SyncEvery
	}
	lh, err := hostLeader(g, b.seed, b.path("traced-leader"), policy, t)
	if err != nil {
		return err
	}
	defer lh.close()
	watchBase := lh.base()
	if replicate {
		fh, err := hostFollower(lh.addr, b.seed, b.path("traced-follower"), policy, t)
		if err != nil {
			return err
		}
		defer fh.close()
		watchBase = fh.base()
	}
	f, err := startFeed(newClient(watchBase, nil))
	if err != nil {
		return err
	}
	defer f.stop()
	rate := churnRef
	if replicate {
		rate = replicateRef
	}
	d := newChurnDriver(newClient(lh.base(), t), t, copyG, b.seed)
	d.phase(rate, 300*time.Millisecond)
	f.waitIdle(100*time.Millisecond, 2*time.Second)
	t.reset()
	ref := d.phase(rate, b.refDur(writeRefShare))
	f.waitN(d.g.NumVertices(), 2*time.Second)
	vis, unseen := f.visible(ref.markers)
	logf("traced reference %s; visible p50=%.2fms unseen=%d", ref, vis.q(0.5), unseen)
	spans := t.snapshot()
	self := selfTimes(spans)
	rtt, mSelf := spanStats(spans, self, "client.mutate")
	handler, _ := spanStats(spans, self, "api.mutate")
	l := b.layer
	l["client.mutate_rtt_p50_us"] = quantile(rtt, 0.5)
	l["client.mutate_self_p50_us"] = quantile(mSelf, 0.5)
	l["api.mutate_handler_p50_us"] = quantile(handler, 0.5)
	l["trace.untraced_p50_ms"] = untraced.visible.q(0.5)
	l["trace.traced_p50_ms"] = vis.q(0.5)
	l["trace.overhead_ratio"] = vis.q(0.5) / untraced.visible.q(0.5)
	l["trace.spans"] = float64(len(spans))
	logf("spans:\n%s", spanSummary(spans))
	return t.write(b.spansPath())
}
