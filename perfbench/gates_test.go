package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := func(v int) time.Time { return t0.Add(time.Duration(v) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "client", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "api", Start: ms(2), End: ms(5)},
		{ID: 3, Parent: 1, Name: "api", Start: ms(4), End: ms(7)},   // overlaps 2: union is 2..7
		{ID: 4, Parent: 1, Name: "late", Start: ms(9), End: ms(12)}, // clipped to the parent: 9..10
		{ID: 5, Parent: 2, Name: "store", Start: ms(3), End: ms(4)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 4 * time.Millisecond, 2: 2 * time.Millisecond, 3: 3 * time.Millisecond,
		4: 3 * time.Millisecond, 5: time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

// Each gate must reject a wrong answer and accept the right one.
func TestGatesRejectWrongAnswers(t *testing.T) {
	good := []int32{0, 1, 2, 1}
	checks := []struct {
		name      string
		ok, wrong error
	}{
		{"labels in range", checkLabels("x", good, 4, 3), checkLabels("x", []int32{0, 3, 1, 1}, 4, 3)},
		{"labels cover n", checkLabels("x", good, 4, 3), checkLabels("x", good[:3], 4, 3)},
		{"negative label", checkLabels("x", good, 4, 3), checkLabels("x", []int32{0, -1, 1, 1}, 4, 3)},
		{"rho within c", checkRho("x", 1.02, 1.05), checkRho("x", 1.06, 1.05)},
		{"deterministic labels", checkDeterministic(good, []int32{0, 1, 2, 1}, 7, 7), checkDeterministic(good, []int32{0, 1, 1, 1}, 7, 7)},
		{"deterministic messages", checkDeterministic(good, good, 7, 7), checkDeterministic(good, good, 7, 8)},
		{"feed equals dump", checkSameLabels("x", good, []int32{0, 1, 2, 1}), checkSameLabels("x", good, []int32{0, 1, 2, 2})},
		{"feed length", checkSameLabels("x", good, good), checkSameLabels("x", good, good[:2])},
		{"drift stays", checkNoIncrease("drift", 0, 0), checkNoIncrease("drift", 0, 1)},
		{"markers visible", checkMarkers("x", 10, 0), checkMarkers("x", 10, 1)},
		{"recovery keeps vertices", checkRecovered(10, 10, 5, 5), checkRecovered(10, 9, 5, 5)},
		{"recovery keeps batches", checkRecovered(10, 11, 5, 6), checkRecovered(10, 10, 5, 4)},
		{"follower caught up", checkCaughtUp(9, 9), checkCaughtUp(8, 9)},
	}
	for _, c := range checks {
		if c.ok != nil {
			t.Errorf("%s: rejected a right answer: %v", c.name, c.ok)
		}
		if c.wrong == nil {
			t.Errorf("%s: accepted a wrong answer", c.name)
		}
	}
}

func TestLookupDriverRejectsWrongAnswers(t *testing.T) {
	d := newLookupDriver(nil, nil, 4, 1)
	d.answers = map[int64]int32{0: 0, 3: 1}
	if err := d.checkAgainst([]int32{0, 1, 2, 1}); err != nil {
		t.Errorf("right answers rejected: %v", err)
	}
	if err := d.checkAgainst([]int32{0, 1, 2, 2}); err == nil {
		t.Error("an answer the dump contradicts was accepted")
	}
}

// BENCHMARK.json must list exactly the metrics the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
}
