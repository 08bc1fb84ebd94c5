package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a boundary the benchmark owns: a client
// call or attempt, a router or knowd handler, a router-to-shard call, or a
// kernel call of the replay. Times are nanoseconds since the tracer epoch;
// parent indexes the tracer's span list (-1 for a root or a parent that is
// resolved later by request id). req is the request id: the
// Idempotency-Key the call carried, which both ends of a hop see.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    string `json:"req,omitempty"`
}

// tracer keeps spans in memory for the traced run; they are analysed and
// written out when the run ends. on gates recording, so the traced stack
// can also run untraced windows for the overhead comparison.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// goids maps a router-handler goroutine to its span, so an upstream
	// call made synchronously on that goroutine (opens, announces, closes,
	// standby upkeep) finds its parent; eval legs run on goroutines of
	// their own and carry the parent in the request context instead.
	goids sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent int32, req string) int32 {
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Req: req})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) { t.endReq(i, "") }

func (t *tracer) endReq(i int32, req string) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	if req != "" {
		t.spans[i].Req = req
	}
	t.mu.Unlock()
}

// record adds a finished span (the replay times its calls itself).
func (t *tracer) record(name string, parent int32, req string, start, end time.Time) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Req: req})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// requestKind classifies a session API request by method and path.
func requestKind(r *http.Request) (string, bool) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sessions":
		return "open", true
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/eval"):
		return "eval", true
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/announce"):
		return "announce", true
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/v1/sessions/"):
		return "close", true
	}
	return "", false
}

type spanKey struct{}

// goid returns the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). Only the traced run pays for it.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// wrapHandler times every session request h serves as a span named
// prefix+kind. With router set, the span is also published to upstream
// calls made on the handler's behalf.
func (t *tracer) wrapHandler(prefix string, h http.Handler, router bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, ok := requestKind(r)
		if !ok || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		i := t.begin(prefix+kind, -1, r.Header.Get("Idempotency-Key"))
		if router {
			g := goid()
			t.goids.Store(g, i)
			defer t.goids.Delete(g)
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, i))
		}
		h.ServeHTTP(w, r)
		t.end(i)
	})
}

// spanBody ends a span when the response body is closed, so a round-trip
// span covers reading the body as well as the headers.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	i    int32
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.end(b.i) })
	return err
}

func (t *tracer) roundTrip(inner http.RoundTripper, req *http.Request, name string, parent int32) (*http.Response, error) {
	i := t.begin(name, parent, req.Header.Get("Idempotency-Key"))
	resp, err := inner.RoundTrip(req)
	if err != nil {
		t.end(i)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, i: i}
	return resp, nil
}

// upstreamRT times each router-to-shard call; the router receives it
// through cluster.Config.HTTPClient.
type upstreamRT struct {
	t     *tracer
	inner http.RoundTripper
}

func (u *upstreamRT) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, ok := requestKind(req)
	if !ok || !u.t.on.Load() {
		return u.inner.RoundTrip(req)
	}
	parent := int32(-1)
	if v, ok := req.Context().Value(spanKey{}).(int32); ok {
		parent = v
	} else if v, ok := u.t.goids.Load(goid()); ok {
		parent = v.(int32)
	}
	return u.t.roundTrip(u.inner, req, "cluster.upstream."+kind, parent)
}

// workerTrace is one benchmark client goroutine's trace state: the client
// call in progress and the request id its attempts carried. Only that
// goroutine touches it (http.Client runs RoundTrip on the caller).
type workerTrace struct {
	t   *tracer
	cur int32
	req string
}

func (wt *workerTrace) begin(kind opKind) int32 {
	if !wt.t.on.Load() {
		return -1
	}
	wt.cur = wt.t.begin("client."+kind.String(), -1, "")
	wt.req = ""
	return wt.cur
}

func (wt *workerTrace) end(i int32) {
	wt.t.endReq(i, wt.req)
	wt.cur = -1
}

// attemptRT times each attempt of a benchmark client call.
type attemptRT struct {
	wt    *workerTrace
	inner http.RoundTripper
}

func (a *attemptRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if a.wt.cur < 0 {
		return a.inner.RoundTrip(req)
	}
	a.wt.req = req.Header.Get("Idempotency-Key")
	return a.wt.t.roundTrip(a.inner, req, "client.attempt", a.wt.cur)
}

// analysis is the span tree with parents resolved and self times computed.
type analysis struct {
	spans      []span
	children   [][]int32
	self       []int64
	unparented int
}

// analyse links each handler span to the call that carried its request id
// (a client attempt, or a router-to-shard call) and computes self times:
// a span's duration minus the part of it its children cover.
func (t *tracer) analyse() *analysis {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	a := &analysis{spans: spans, children: make([][]int32, len(spans)), self: make([]int64, len(spans))}
	callers := make(map[string][]int32) // request id -> attempt/upstream spans
	for i, s := range spans {
		if s.Req != "" && (s.Name == "client.attempt" || strings.HasPrefix(s.Name, "cluster.upstream.")) {
			callers[s.Req] = append(callers[s.Req], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		handler := strings.HasPrefix(s.Name, "server.handler.") || strings.HasPrefix(s.Name, "cluster.handler.")
		if s.Parent < 0 && handler {
			// The latest call with this request id that started before the
			// handler did is the one the handler is serving.
			for _, c := range callers[s.Req] {
				if spans[c].Start <= s.Start && (s.Parent < 0 || spans[c].Start > spans[s.Parent].Start) {
					s.Parent = c
				}
			}
			if s.Parent < 0 {
				a.unparented++
			}
		}
		if s.Parent < 0 && strings.HasPrefix(s.Name, "cluster.upstream.") {
			a.unparented++
		}
		if s.Parent >= 0 {
			a.children[s.Parent] = append(a.children[s.Parent], int32(i))
		}
	}
	for i, s := range spans {
		a.self[i] = (s.End - s.Start) - a.covered(int32(i))
	}
	return a
}

// covered is how much of span i's interval its children cover.
func (a *analysis) covered(i int32) int64 {
	s := a.spans[i]
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range a.children[i] {
		cs := a.spans[c]
		lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.lo, y.lo) })
	var sum, curLo, curHi int64
	curHi = -1
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name      string
	n         int
	dur, self int64 // totals, ns
	durs      []time.Duration
}

func (a *analysis) rows() []*layerRow {
	by := make(map[string]*layerRow)
	for i, s := range a.spans {
		if s.End < s.Start {
			continue // never finished (the run ended mid-call)
		}
		r := by[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			by[s.Name] = r
		}
		r.n++
		r.dur += s.End - s.Start
		r.self += a.self[i]
		r.durs = append(r.durs, time.Duration(s.End-s.Start))
	}
	out := make([]*layerRow, 0, len(by))
	for _, r := range by {
		out = append(out, r)
	}
	slices.SortFunc(out, func(x, y *layerRow) int { return strings.Compare(x.name, y.name) })
	return out
}

// meanUS is the mean duration of the spans named name, in microseconds,
// or 0 when there are none.
func (a *analysis) meanUS(name string) float64 {
	var sum int64
	n := 0
	for _, s := range a.spans {
		if s.Name == name && s.End >= s.Start {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

func (a *analysis) count(name string) int {
	n := 0
	for _, s := range a.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// meanSelfUS is the mean self time of the spans named name, in µs.
func (a *analysis) meanSelfUS(name string) float64 {
	var sum int64
	n := 0
	for i, s := range a.spans {
		if s.Name == name && s.End >= s.Start {
			sum += a.self[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// transportUS is, per client call of kind, the call's duration minus the
// server-side handler spans under its attempts (knowd's on a direct
// stack, the router's on a routed one): the time spent in the client
// library, the loopback hop and net/http. Mean, in µs.
func (a *analysis) transportUS(kind string) float64 {
	var sum int64
	n := 0
	for i, s := range a.spans {
		if s.Name != "client."+kind || s.End < s.Start {
			continue
		}
		var handler int64
		for _, att := range a.children[i] {
			for _, h := range a.children[att] {
				handler += a.spans[h].End - a.spans[h].Start
			}
		}
		sum += (s.End - s.Start) - handler
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// writeTable prints the per-layer self-time table: for each span name,
// the count, mean duration, mean self time and median duration.
func (a *analysis) writeTable(w io.Writer, workload string) {
	fmt.Fprintf(w, "# per-layer self time, workload %s (µs; self = duration minus time covered by child spans)\n", workload)
	fmt.Fprintf(w, "%-28s %9s %11s %11s %11s\n", "span", "count", "mean", "mean self", "p50")
	for _, r := range a.rows() {
		fmt.Fprintf(w, "%-28s %9d %11.2f %11.2f %11.2f\n", r.name, r.n,
			float64(r.dur)/float64(r.n)/1e3, float64(r.self)/float64(r.n)/1e3, us(quantile(r.durs, 0.5)))
	}
}

// writeSpans writes every span as one JSON object per line.
func (a *analysis) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range a.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
