package main

import (
	"fmt"
	"slices"
)

// The correctness gates. Each returns nil when the system's answer is
// right and an error naming the first discrepancy otherwise; a run with
// any failed gate prints correct=false and exits non-zero.

// checkLabels: a labeling covers all n vertices with labels in [0, k).
func checkLabels(what string, labels []int32, n, k int) error {
	if len(labels) != n {
		return fmt.Errorf("%s: %d labels for %d vertices", what, len(labels), n)
	}
	for v, l := range labels {
		if l < 0 || int(l) >= k {
			return fmt.Errorf("%s: vertex %d has label %d outside [0,%d)", what, v, l, k)
		}
	}
	return nil
}

// checkRho: the balance ρ stays within the capacity constant c (Eq. 5).
func checkRho(what string, rho, c float64) error {
	if rho > c {
		return fmt.Errorf("%s: rho %.4f exceeds capacity c=%.2f", what, rho, c)
	}
	return nil
}

// checkDeterministic: the same seed and worker count give byte-identical
// labels and the same message count.
func checkDeterministic(a, b []int32, msgsA, msgsB int64) error {
	if !slices.Equal(a, b) {
		return fmt.Errorf("same seed and workers gave different labels (%d vs %d labels)", len(a), len(b))
	}
	if msgsA != msgsB {
		return fmt.Errorf("same seed and workers gave %d then %d messages", msgsA, msgsB)
	}
	return nil
}

// checkSameLabels: two views of one labeling agree exactly, e.g. the
// labels rebuilt from the change feed and the full /v1/lookup dump.
func checkSameLabels(what string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d labels, want %d", what, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			return fmt.Errorf("%s: vertex %d has label %d, want %d", what, v, got[v], want[v])
		}
	}
	return nil
}

// checkNoIncrease: a counter that must never move (cut drift, replica
// reconnects) did not.
func checkNoIncrease(what string, before, after float64) error {
	if after > before {
		return fmt.Errorf("%s rose from %g to %g", what, before, after)
	}
	return nil
}

// checkMarkers: every accepted marker vertex became visible.
func checkMarkers(what string, accepted, unseen int) error {
	if unseen > 0 {
		return fmt.Errorf("%s: %d of %d accepted marker vertices never visible", what, unseen, accepted)
	}
	return nil
}

// checkRecovered: after a crash and restart, neither the vertex count
// nor the applied-batch count went backwards.
func checkRecovered(beforeN, afterN int, beforeApplied, afterApplied uint64) error {
	if afterN < beforeN {
		return fmt.Errorf("recovery lost vertices: %d before crash, %d after", beforeN, afterN)
	}
	if afterApplied < beforeApplied {
		return fmt.Errorf("recovery lost batches: %d applied before crash, %d after", beforeApplied, afterApplied)
	}
	return nil
}

// checkCaughtUp: the follower applied everything the leader journaled.
func checkCaughtUp(followerApplied, leaderSeq uint64) error {
	if followerApplied < leaderSeq {
		return fmt.Errorf("follower applied seq %d, leader journal seq %d", followerApplied, leaderSeq)
	}
	return nil
}
