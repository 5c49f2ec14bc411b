package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the sample-count rule for reported percentiles: a
// percentile is reported only when at least this many samples lie
// beyond it, so one outlier cannot set it.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile returns the highest percentile in tailLadder that leaves
// at least minBeyond of n samples beyond it, or 0 when even the median
// does not.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// beyond is the number of the n samples that lie above the q-quantile
// under the nearest-rank definition used by quantile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantile returns the nearest-rank q-quantile of xs, which it sorts in
// place. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	return xs[rank(len(xs), q)-1]
}

// latencies summarizes one phase of timed operations. Failed operations
// are kept as +Inf so that they count as missing every latency limit.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }
func (l *latencies) miss()               { l.ms = append(l.ms, math.Inf(1)) }

// n is the number of samples, misses included.
func (l *latencies) n() int { return len(l.ms) }

// misses counts the failed operations.
func (l *latencies) misses() int {
	c := 0
	for _, x := range l.ms {
		if math.IsInf(x, 1) {
			c++
		}
	}
	return c
}

// q returns the q-quantile in milliseconds with misses ranked last.
func (l *latencies) q(q float64) float64 {
	return quantile(slices.Clone(l.ms), q)
}

// searchQ is the percentile the rate search holds to the latency limit;
// each probe is sized so that at least minBeyond samples lie beyond it.
const searchQ = 0.9

// probePasses is the rate-search criterion: with each of the probe's
// failed operations counted as a miss, its searchQ latency is within
// limitMS, and the generator's backlog did not keep growing.
func probePasses(lat latencies, failed int, late lateness, limitMS float64) bool {
	for range failed {
		lat.miss()
	}
	return lat.q(searchQ) <= limitMS && !late.growing(limitMS)
}

// failureRatio is failed over attempted; 0 when nothing was attempted.
func failureRatio(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// lateness summarizes how far behind its schedule an open-loop
// generator ran: per operation, the send time minus the due time.
type lateness struct {
	ms []float64 // in schedule order
}

func (l *lateness) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }

func (l *lateness) p99() float64 { return quantile(slices.Clone(l.ms), 0.99) }
func (l *lateness) max() float64 { return quantile(slices.Clone(l.ms), 1) }

// growing reports whether the generator fell further and further behind:
// the median lateness of the last quarter of the schedule exceeds that
// of the first quarter by more than limitMS. A backlog that grows that
// much means the offered rate is not sustained.
func (l *lateness) growing(limitMS float64) bool {
	n := len(l.ms)
	if n < 8 {
		return false
	}
	first := quantile(slices.Clone(l.ms[:n/4]), 0.5)
	last := quantile(slices.Clone(l.ms[n-n/4:]), 0.5)
	return last-first > limitMS
}

// searchStep is one probe of a rate search.
type searchStep struct {
	rate float64
	ok   bool
}

// confirmed re-runs a failing probe once: a rate fails only when two
// probes in a row miss, so one stall of the shared host does not end
// the climb early.
func confirmed(probe func(rate float64) bool) func(rate float64) bool {
	return func(r float64) bool { return probe(r) || probe(r) }
}

// searchMaxRate finds the highest rate at which probe passes. It climbs
// geometrically by growth from start until a probe fails (or descends
// when start itself fails), then bisects the last passing and first
// failing rates geometrically until they are within a factor
// 1+resolution of each other, or until maxSteps probes have run. It
// returns the highest passing rate (0 when none passed) and every probe
// in order. startPassed records that start already passed (a phase the
// caller ran at that rate), which saves one probe.
func searchMaxRate(start, growth, resolution float64, maxSteps int, startPassed bool, probe func(rate float64) bool) (float64, []searchStep) {
	var steps []searchStep
	try := func(r float64) bool {
		ok := len(steps) == 0 && startPassed || probe(r)
		steps = append(steps, searchStep{r, ok})
		return ok
	}
	pass, fail := 0.0, 0.0
	if try(start) {
		pass = start
		for len(steps) < maxSteps {
			r := pass * growth
			if !try(r) {
				fail = r
				break
			}
			pass = r
		}
	} else {
		fail = start
		for len(steps) < maxSteps {
			r := fail / growth
			if try(r) {
				pass = r
				break
			}
			fail = r
		}
	}
	if pass == 0 || fail == 0 {
		return pass, steps
	}
	for len(steps) < maxSteps && fail/pass > 1+resolution {
		mid := math.Sqrt(pass * fail)
		if try(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, steps
}

// calmHalf keeps the samples taken while the hypervisor stole the least,
// in unstolen time: it splits lat into len(steal) equal runs of
// consecutive samples, one per window of the phase, keeps the runs whose
// window's steal share is at most the median window's, and scales each
// kept sample by 1 − its window's steal share. lat's samples must be in
// due order on a uniform schedule, so that run k covers window k. Stolen
// time is the host's, not the program's: dropping the stolen half of the
// phase removes the shared host's stalls, and the scaling removes the
// stretch that a host stealing for the whole phase puts on every sample,
// as the closed-loop rates divide by the unstolen share.
func calmHalf(lat latencies, steal []float64) latencies {
	w := len(steal)
	if w == 0 {
		return lat
	}
	limit := median(slices.Clone(steal))
	var out latencies
	n := lat.n()
	for k, s := range steal {
		if s <= limit {
			for _, ms := range lat.ms[k*n/w : (k+1)*n/w] {
				out.ms = append(out.ms, ms*(1-min(0.9, s)))
			}
		}
	}
	return out
}

// median of xs (sorted in place); NaN when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
