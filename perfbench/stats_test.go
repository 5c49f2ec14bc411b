package main

import (
	"math"
	"testing"
	"time"
)

func TestTailQuantileSampleRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{9, 0},       // not even the median has 10 samples beyond it
		{20, 0.5},    // 10 beyond the median
		{40, 0.75},   // 10 beyond p75
		{100, 0.9},   // 10 beyond p90
		{199, 0.9},   // 9 beyond p95: not yet
		{200, 0.95},  // 10 beyond p95
		{1000, 0.99}, // 10 beyond p99
		{3000, 0.99}, // 3 beyond p99.9: not yet
		{10000, 0.999},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, 100*q, beyond(c.n, q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestLatenciesCountFailuresAsMisses(t *testing.T) {
	var l latencies
	for i := 1; i <= 98; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	l.miss()
	l.miss()
	if l.n() != 100 || l.misses() != 2 {
		t.Fatalf("n=%d misses=%d, want 100 and 2", l.n(), l.misses())
	}
	// Two misses in a hundred push p99 past every limit.
	if got := l.q(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %g, want +Inf", got)
	}
	if got := l.q(0.5); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
}

func TestProbePassesCountsFailuresAsMisses(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	if !probePasses(l, 0, lateness{}, 90) {
		t.Error("p90 = 90ms should meet a 90ms limit")
	}
	// Refusing more than a tenth of the operations pushes the p90 past
	// any finite limit.
	if probePasses(l, 15, lateness{}, 1e9) {
		t.Error("a probe with more than 10% failures passed")
	}
	var growing lateness
	for i := range 100 {
		growing.add(time.Duration(i) * 10 * time.Millisecond)
	}
	if probePasses(l, 0, growing, 95) {
		t.Error("a probe whose backlog keeps growing passed")
	}
}

func TestConfirmedProbe(t *testing.T) {
	calls := 0
	flaky := confirmed(func(float64) bool { calls++; return calls%2 == 0 })
	if !flaky(1) || calls != 2 {
		t.Errorf("a probe failing once then passing should pass after 2 calls (calls=%d)", calls)
	}
	calls = 0
	if confirmed(func(float64) bool { calls++; return false })(1) || calls != 2 {
		t.Errorf("a probe failing twice should fail after 2 calls (calls=%d)", calls)
	}
}

func TestFailureRatio(t *testing.T) {
	if got := failureRatio(200, 3); got != 0.015 {
		t.Errorf("failureRatio(200, 3) = %g", got)
	}
	if got := failureRatio(0, 0); got != 0 {
		t.Errorf("failureRatio(0, 0) = %g", got)
	}
}

func TestLatenessGrowing(t *testing.T) {
	var flat, growing lateness
	for i := range 400 {
		flat.add(time.Duration(i%7) * time.Millisecond)
		growing.add(time.Duration(i) * time.Millisecond)
	}
	if flat.growing(10) {
		t.Error("bounded lateness reported as growing")
	}
	if !growing.growing(10) {
		t.Error("lateness rising 1ms per op not reported as growing")
	}
}

func TestSearchMaxRate(t *testing.T) {
	const capacity = 2718.0
	probe := func(r float64) bool { return r <= capacity }
	got, steps := searchMaxRate(1000, 1.5, 0.05, 20, false, probe)
	if got > capacity || got < capacity/1.05 {
		t.Fatalf("searchMaxRate = %g, want within 5%% below %g (%d steps)", got, capacity, len(steps))
	}
	// Starting above capacity searches downward.
	got, _ = searchMaxRate(10000, 1.5, 0.05, 20, false, probe)
	if got > capacity || got < capacity/1.05 {
		t.Fatalf("downward search = %g, want within 5%% below %g", got, capacity)
	}
	// A start rate that already passed is not probed again.
	probes := 0
	searchMaxRate(1000, 1.5, 0.05, 20, true, func(r float64) bool {
		probes++
		if r == 1000 {
			t.Error("known start rate probed again")
		}
		return probe(r)
	})
	if probes == 0 {
		t.Error("no probes after the known start")
	}
	// The probe budget is respected and nothing passes → 0.
	got, steps = searchMaxRate(1000, 1.5, 0.05, 5, false, func(float64) bool { return false })
	if got != 0 || len(steps) != 5 {
		t.Errorf("all-failing search = %g after %d steps, want 0 after 5", got, len(steps))
	}
}

func TestTimeAveragePhi(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	evs := []feedEvent{
		{at: at(-1), cross: 1, total: 2}, // phi 0.5 in effect at the start
		{at: at(1), cross: 0, total: 2},  // phi 1 from 1s
		{at: at(3), cross: 2, total: 2},  // phi 0 from 3s, after the window
	}
	// Window [0,2): 1s at 0.5 and 1s at 1.0.
	if got := timeAveragePhi(evs, at(0), at(2)); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("timeAveragePhi = %g, want 0.75", got)
	}
}

func TestCalmHalf(t *testing.T) {
	var lat latencies
	for i := range 8 {
		lat.add(time.Duration(i+1) * time.Millisecond)
	}
	// Windows 1 and 2 (samples 3-6 ms) had the most steal: dropped.
	// Window 3 lost 1% of the host to steal: its samples shrink by 1%.
	got := calmHalf(lat, []float64{0, 0.3, 0.2, 0.01})
	want := []float64{1, 2, 7 * 0.99, 8 * 0.99}
	if len(got.ms) != len(want) {
		t.Fatalf("calmHalf kept %v, want %v", got.ms, want)
	}
	for i := range want {
		if math.Abs(got.ms[i]-want[i]) > 1e-9 {
			t.Fatalf("calmHalf kept %v, want %v", got.ms, want)
		}
	}
	// A host that stole nothing keeps every sample, misses included.
	lat.miss()
	if got := calmHalf(lat, []float64{0, 0, 0}); got.n() != lat.n() || got.misses() != 1 {
		t.Fatalf("calmHalf without steal kept %d samples (%d misses), want %d (1)", got.n(), got.misses(), lat.n())
	}
}
