package main

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"obddopt/internal/obs"
)

// span is one timed call made by the benchmark: the op, the client call,
// the server handler serving it, or one replayed layer call. Spans of one
// op share the request ID; Parent is -1 for the op's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the traced pass's spans in memory; they are written out
// when the run ends. It is safe for concurrent use: the server handler
// records its span on the connection's goroutine.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	clients map[string]int // request ID → its open "client.call" span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), clients: make(map[string]int)}
}

func (t *tracer) begin(req, name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	if name == "client.call" {
		t.clients[req] = id
	}
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// wrap times the service handler of every traced request as a child of
// the client call that sent it, matched by the X-Request-ID header. Ops
// outside the traced pass send no request ID and are served untimed.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get("X-Request-ID")
		if req == "" {
			h.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		parent, ok := t.clients[req]
		t.mu.Unlock()
		if !ok {
			parent = -1
		}
		id := t.begin(req, "server.handler", parent)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reqSpan is an open span of one op; a nil *reqSpan (the untraced path)
// makes every method a plain call.
type reqSpan struct {
	t   *tracer
	req string
	id  int
}

func (s *reqSpan) start(name string) *reqSpan {
	if s == nil {
		return nil
	}
	return &reqSpan{t: s.t, req: s.req, id: s.t.begin(s.req, name, s.id)}
}

func (s *reqSpan) finish() {
	if s != nil {
		s.t.end(s.id)
	}
}

// time runs f inside a child span named name.
func (s *reqSpan) time(name string, f func()) {
	c := s.start(name)
	f()
	c.finish()
}

// reqID is the request ID the op's calls carry ("" when untraced).
func (s *reqSpan) reqID() string {
	if s == nil {
		return ""
	}
	return s.req
}

// spanStats groups the spans by name: the durations, and the self times
// (duration minus the time covered by child spans).
func spanStats(spans []span) (durs, self map[string][]float64) {
	childTime := make([]time.Duration, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			childTime[p] += spans[i].dur()
		}
	}
	durs = make(map[string][]float64)
	self = make(map[string][]float64)
	for i := range spans {
		s := &spans[i]
		durs[s.Name] = append(durs[s.Name], s.dur().Seconds())
		self[s.Name] = append(self[s.Name], (s.dur() - childTime[i]).Seconds())
	}
	return durs, self
}

// eventSink aggregates the solver events of the traced pass: the
// service's (through Config.Trace) and the replayed solves'. It ignores
// events while off, so the untraced phase of a traced run pays only the
// event construction.
type eventSink struct {
	on atomic.Bool

	mu      sync.Mutex
	layerMS map[int][]float64
	races   int
	dpWins  int
	seedMS  []float64
}

func (e *eventSink) Emit(ev obs.Event) {
	if !e.on.Load() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch ev.Kind {
	case obs.KindLayerEnd:
		if e.layerMS == nil {
			e.layerMS = make(map[int][]float64)
		}
		e.layerMS[ev.K] = append(e.layerMS[ev.K], ms(ev.Elapsed))
	case obs.KindRaceWon:
		e.races++
		if ev.Lane == "fs" || ev.Lane == "parallel" {
			e.dpWins++
		}
	case obs.KindLaneResult:
		if ev.Lane == "heuristic" {
			e.seedMS = append(e.seedMS, ms(ev.Elapsed))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
