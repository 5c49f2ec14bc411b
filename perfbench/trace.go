package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type Span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Req    int64     `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil.
type tracer struct {
	mu    sync.Mutex
	spans []Span
	next  int64
}

func newTracer() *tracer { return &tracer{} }

// begin opens a span and returns it with a fresh ID; finish records it.
func (t *tracer) begin(name string, parent, req int64) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	if req == 0 {
		req = id
	}
	return Span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Now()}
}

func (t *tracer) finish(s Span) {
	if t == nil {
		return
	}
	s.End = time.Now()
	t.record(s)
}

func (t *tracer) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (a warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (clipped to the parent), keyed by span ID.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals within p.
func covered(p Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// spanStats gathers durations (and self times) of the spans named name,
// in microseconds.
func spanStats(spans []Span, self map[int64]time.Duration, name string) (dur, selfUS []float64) {
	for _, s := range spans {
		if s.Name == name {
			dur = append(dur, float64(s.dur())/1e3)
			selfUS = append(selfUS, float64(self[s.ID])/1e3)
		}
	}
	return dur, selfUS
}

// reqHeader carries the client span's ID to the server-side wrapper, so
// the handler span is recorded as its child.
const reqHeader = "X-Bench-Span"

type spanKey struct{}

// withSpan stores the client span in ctx for the tracing transport.
func withSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// tracingTransport stamps each request with the ID of the client span
// in its context.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	s, ok := r.Context().Value(spanKey{}).(Span)
	if !ok {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatInt(s.ID, 10)+"/"+strconv.FormatInt(s.Req, 10))
	return t.base.RoundTrip(r)
}

// tracedHandler wraps the API mux and records one "api.<route>" span per
// request, parented to the client span named in the request header.
// Streaming routes (watch, replicate) are passed through untimed.
func tracedHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := strings.TrimPrefix(r.URL.Path, "/v1/")
		if route == "watch" || strings.HasPrefix(route, "replicate") {
			next.ServeHTTP(w, r)
			return
		}
		var parent, req int64
		if h := r.Header.Get(reqHeader); h != "" {
			p, q, _ := strings.Cut(h, "/")
			parent, _ = strconv.ParseInt(p, 10, 64)
			req, _ = strconv.ParseInt(q, 10, 64)
		}
		s := t.begin("api."+route, parent, req)
		next.ServeHTTP(w, r)
		t.finish(s)
	})
}

// spanSummary renders a short per-name table of span counts and median
// self times for the run log.
func spanSummary(spans []Span) string {
	self := selfTimes(spans)
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	var b strings.Builder
	for _, n := range slices.Sorted(maps.Keys(names)) {
		d, st := spanStats(spans, self, n)
		fmt.Fprintf(&b, "  %-22s n=%-6d p50=%9.1fus self_p50=%9.1fus\n", n, len(d), quantile(d, 0.5), quantile(st, 0.5))
	}
	return b.String()
}
