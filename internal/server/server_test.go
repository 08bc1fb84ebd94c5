package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/runs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do sends one JSON request and returns the status code and body bytes.
// A non-empty key is sent as the Idempotency-Key header.
func do(t *testing.T, ts *httptest.Server, method, path string, body any, key string) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
	return v
}

// TestMuddySessionLifecycle drives the classic three-muddy-children
// dialogue through the HTTP surface: open, evaluate, announce the father's
// statement and two rounds of "nobody knows", and watch the chain shrink
// the model to the single all-muddy world where everyone finally knows.
func TestMuddySessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:3"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open: status %d: %s", code, body)
	}
	st := decode[SessionState](t, body)
	if st.Worlds != 8 || st.Agents != 3 || st.Link != 0 || st.Marked < 0 {
		t.Fatalf("open state: %+v", st)
	}
	sid := st.Session

	code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{
		Formulas: []string{"K0 muddy1", "K0 muddy0", "C (muddy0 | muddy1 | muddy2)"},
		Worlds:   true,
	}, "")
	if code != http.StatusOK {
		t.Fatalf("eval: status %d: %s", code, body)
	}
	ev := decode[EvalResponse](t, body)
	if len(ev.Verdicts) != 3 {
		t.Fatalf("verdicts: %+v", ev)
	}
	// Child 0 sees the others: K0 muddy1 holds exactly where child 1 is
	// muddy (4 of 8 worlds), and holds at the actual all-muddy world.
	if v := ev.Verdicts[0]; v.Count != 4 || v.Marked == nil || !*v.Marked || len(v.Worlds) != 4 {
		t.Fatalf("K0 muddy1: %+v", v)
	}
	// No child knows its own state before any announcement.
	if v := ev.Verdicts[1]; v.Count != 0 || v.Marked == nil || *v.Marked {
		t.Fatalf("K0 muddy0: %+v", v)
	}
	if v := ev.Verdicts[2]; v.Count != 0 {
		t.Fatalf("C of disjunction before announcement: %+v", v)
	}

	nobody := "~(K0 muddy0 | K0 ~muddy0) & ~(K1 muddy1 | K1 ~muddy1) & ~(K2 muddy2 | K2 ~muddy2)"
	wantWorlds := []int{7, 4, 1}
	for i, src := range []string{"muddy0 | muddy1 | muddy2", nobody, nobody} {
		code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/announce", AnnounceRequest{Formula: src}, "")
		if code != http.StatusOK {
			t.Fatalf("announce %d: status %d: %s", i, code, body)
		}
		st = decode[SessionState](t, body)
		if st.Link != i+1 || st.Worlds != wantWorlds[i] {
			t.Fatalf("announce %d: state %+v, want link %d worlds %d", i, st, i+1, wantWorlds[i])
		}
		if st.Marked < 0 {
			t.Fatalf("announce %d eliminated the actual world: %+v", i, st)
		}
	}

	code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{
		Formulas: []string{"K0 muddy0 & K1 muddy1 & K2 muddy2", "C (muddy0 & muddy1 & muddy2)"},
	}, "")
	if code != http.StatusOK {
		t.Fatalf("final eval: status %d: %s", code, body)
	}
	ev = decode[EvalResponse](t, body)
	for _, v := range ev.Verdicts {
		if v.Count != 1 || v.Marked == nil || !*v.Marked {
			t.Fatalf("after the dialogue: %+v", v)
		}
	}

	// A fourth "nobody knows" now contradicts the model: 422, link frozen.
	code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/announce", AnnounceRequest{Formula: nobody}, "")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("inconsistent announcement: status %d: %s", code, body)
	}
	code, body = do(t, ts, "DELETE", "/v1/sessions/"+sid, nil, "")
	if code != http.StatusOK {
		t.Fatalf("close: status %d: %s", code, body)
	}
}

// TestR2D2MatchesDirectModel pins the serving layer against the library:
// the verdict world sets coming back over HTTP are exactly what evaluating
// on the underlying point model yields, and temporal formulas work at link
// zero, then fail with 422 once an announcement moves the session off the
// original structure.
func TestR2D2MatchesDirectModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "r2d2"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open: status %d: %s", code, body)
	}
	st := decode[SessionState](t, body)
	sid := st.Session

	sys := core.R2D2Chain(6, 9)
	pm := sys.Model(runs.CompleteHistoryView, runs.Interpretation{
		"sent": runs.StablyTrue(runs.SentBy("m")),
	})
	if st.Worlds != pm.NumWorlds() {
		t.Fatalf("worlds %d, direct model has %d", st.Worlds, pm.NumWorlds())
	}

	for _, src := range []string{"K1 sent", "Ce[1] sent", "Cv sent"} {
		code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{
			Formulas: []string{src}, Worlds: true,
		}, "")
		if code != http.StatusOK {
			t.Fatalf("eval %q: status %d: %s", src, code, body)
		}
		ev := decode[EvalResponse](t, body)
		want, err := pm.Eval(logic.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		v := ev.Verdicts[0]
		if v.Count != want.Count() {
			t.Fatalf("%q: served count %d, direct %d", src, v.Count, want.Count())
		}
		got := make(map[int]bool, len(v.Worlds))
		for _, w := range v.Worlds {
			got[w] = true
		}
		for _, w := range want.Elements() {
			if !got[w] {
				t.Fatalf("%q: served worlds miss %d", src, w)
			}
		}
	}

	code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/announce", AnnounceRequest{Formula: "sent"}, "")
	if code != http.StatusOK {
		t.Fatalf("announce sent: status %d: %s", code, body)
	}
	st = decode[SessionState](t, body)

	// Publicly announcing sent makes it common knowledge on the restricted
	// model: K1 sent holds at every surviving world.
	code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{
		Formulas: []string{"K1 sent"},
	}, "")
	if code != http.StatusOK {
		t.Fatalf("eval after announce: status %d: %s", code, body)
	}
	if v := decode[EvalResponse](t, body).Verdicts[0]; v.Count != st.Worlds {
		t.Fatalf("K1 sent after announcing sent: count %d of %d worlds", v.Count, st.Worlds)
	}

	// Temporal operators need the run/time structure the restricted chain
	// no longer has.
	code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{
		Formulas: []string{"Ce[1] sent"},
	}, "")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("temporal after announce: status %d: %s", code, body)
	}
}

// TestScenarioAndAttackSystems opens the remaining loader paths and spot
// checks a knowledge fact on each.
func TestScenarioAndAttackSystems(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "scenario:sync-fixed"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open scenario: status %d: %s", code, body)
	}
	st := decode[SessionState](t, body)
	// The sync-fixed witness point attains full common knowledge of the
	// broadcast fact (the golden matrix's first row).
	code, body = do(t, ts, "POST", "/v1/sessions/"+st.Session+"/eval", EvalRequest{
		Formulas: []string{"C sent"},
	}, "")
	if code != http.StatusOK {
		t.Fatalf("eval scenario: status %d: %s", code, body)
	}
	if v := decode[EvalResponse](t, body).Verdicts[0]; v.Marked == nil || !*v.Marked {
		t.Fatalf("C sent at the sync-fixed witness: %+v", v)
	}

	code, body = do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "attack"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open attack: status %d: %s", code, body)
	}
	st = decode[SessionState](t, body)
	if st.Agents != 2 {
		t.Fatalf("attack agents: %+v", st)
	}
	// Announcing the first delivery bound restricts the model; the session
	// survives with a consistent chain.
	code, body = do(t, ts, "POST", "/v1/sessions/"+st.Session+"/announce", AnnounceRequest{Formula: "del1"}, "")
	if code != http.StatusOK {
		t.Fatalf("announce del1: status %d: %s", code, body)
	}
	after := decode[SessionState](t, body)
	if after.Link != 1 || after.Worlds > st.Worlds {
		t.Fatalf("announce del1: %+v (was %+v)", after, st)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, tc := range []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown system", "POST", "/v1/sessions", OpenRequest{System: "quantum"}, http.StatusBadRequest},
		{"bad muddy count", "POST", "/v1/sessions", OpenRequest{System: "muddy:99"}, http.StatusBadRequest},
		{"bad scenario", "POST", "/v1/sessions", OpenRequest{System: "scenario:quantum"}, http.StatusBadRequest},
		{"malformed body", "POST", "/v1/sessions", "not an object", http.StatusBadRequest},
		{"eval no session", "POST", "/v1/sessions/s999/eval", EvalRequest{Formulas: []string{"p"}}, http.StatusNotFound},
		{"announce no session", "POST", "/v1/sessions/s999/announce", AnnounceRequest{Formula: "p"}, http.StatusNotFound},
		{"close no session", "DELETE", "/v1/sessions/s999", nil, http.StatusNotFound},
	} {
		code, body := do(t, ts, tc.method, tc.path, tc.body, "")
		if code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, code, tc.want, body)
		}
	}

	// Formula-level failures need a live session.
	code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:2"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open: %d: %s", code, body)
	}
	sid := decode[SessionState](t, body).Session
	if code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{Formulas: []string{"K0 ("}}, ""); code != http.StatusBadRequest {
		t.Errorf("unparsable formula: status %d: %s", code, body)
	}
	if code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{}, ""); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d: %s", code, body)
	}
	big := make([]string, maxBatch+1)
	for i := range big {
		big[i] = "muddy0"
	}
	if code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{Formulas: big}, ""); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d: %s", code, body)
	}
	// Semantic failure: agent out of range is a 422 from the evaluator.
	if code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{Formulas: []string{"K7 muddy0"}}, ""); code != http.StatusUnprocessableEntity {
		t.Errorf("agent out of range: status %d: %s", code, body)
	}
}

// TestDedupeReplaysStoredBytes asserts the single-flight idempotency
// semantics end to end: concurrent duplicates of one announce produce one
// chain link and byte-identical responses, and the dedupe-hit counter
// accounts for every duplicate.
func TestDedupeReplaysStoredBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:3"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open: %d: %s", code, body)
	}
	sid := decode[SessionState](t, body).Session

	const dup = 8
	bodies := make([][]byte, dup)
	codes := make([]int, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = do(t, ts, "POST", "/v1/sessions/"+sid+"/announce",
				AnnounceRequest{Formula: "muddy0 | muddy1 | muddy2"}, "announce-father")
		}(i)
	}
	wg.Wait()
	for i := 0; i < dup; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("duplicate %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("duplicate %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	st := decode[SessionState](t, bodies[0])
	if st.Link != 1 {
		t.Fatalf("duplicates advanced the chain: %+v", st)
	}
	stats := s.StatsSnapshot()
	if stats.Announces != 1 {
		t.Fatalf("announce executed %d times, want 1", stats.Announces)
	}
	if stats.DedupeHits != dup-1 {
		t.Fatalf("dedupe hits %d, want %d", stats.DedupeHits, dup-1)
	}

	// A later retry with the same key replays the stored response without
	// touching the (already advanced) session.
	code, body = do(t, ts, "POST", "/v1/sessions/"+sid+"/announce",
		AnnounceRequest{Formula: "muddy0 | muddy1 | muddy2"}, "announce-father")
	if code != http.StatusOK || !bytes.Equal(body, bodies[0]) {
		t.Fatalf("late duplicate: status %d body %s", code, body)
	}
	if got := s.StatsSnapshot().Announces; got != 1 {
		t.Fatalf("late duplicate re-executed: %d announces", got)
	}
}

func TestDedupeWindowEviction(t *testing.T) {
	d := newDedupeWindow(2)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		e, first := d.begin(key)
		if !first {
			t.Fatalf("key %s already present", key)
		}
		d.finish(key, e, http.StatusOK, nil, []byte("{}"), false)
	}
	if n := d.size(); n > 2 {
		t.Fatalf("window holds %d keys, max 2", n)
	}
	// Transient responses are never remembered.
	e, _ := d.begin("transient")
	d.finish("transient", e, http.StatusTooManyRequests, nil, nil, true)
	if _, first := d.begin("transient"); !first {
		t.Fatal("transient entry was remembered")
	}
}

// TestAdmissionControl fills the compute slots and asserts overload is
// shed with 429 + Retry-After instead of queueing, and that a shed
// request carrying an idempotency key is retryable (not remembered).
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{Queue: 2})
	s.sem <- struct{}{}
	s.sem <- struct{}{}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", bytes.NewReader([]byte(`{"system":"muddy:2"}`)))
	req.Header.Set("Idempotency-Key", "shed-then-retry")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over capacity: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := s.StatsSnapshot().Shed; got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}

	<-s.sem
	<-s.sem
	code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:2"}, "shed-then-retry")
	if code != http.StatusCreated {
		t.Fatalf("retry after shed: status %d: %s (shed response was cached)", code, body)
	}
}

// TestPanicRecovery: a panicking handler becomes a 500 and the daemon
// keeps serving; under an idempotency key the panic response is transient,
// so a retry re-executes instead of replaying the failure forever.
func TestPanicRecovery(t *testing.T) {
	s := New(Config{})
	boom := func(w http.ResponseWriter, r *http.Request) { panic("poisoned request") }

	rec := httptest.NewRecorder()
	s.withRecover(boom)(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic: status %d", rec.Code)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics counter %d, want 1", got)
	}

	calls := 0
	flaky := s.withDedupe(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			panic("first time hurts")
		}
		writeJSON(w, http.StatusOK, map[string]int{"call": calls})
	})
	req := httptest.NewRequest("POST", "/x", nil)
	req.Header.Set("Idempotency-Key", "flaky")
	rec = httptest.NewRecorder()
	flaky(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("deduped panic: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	flaky(rec, req.Clone(req.Context()))
	if rec.Code != http.StatusOK || calls != 2 {
		t.Fatalf("retry after panic: status %d calls %d", rec.Code, calls)
	}
}

func TestDrainingRefusesCompute(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.draining.Store(true)
	code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:2"}, "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining open: status %d: %s", code, body)
	}
	code, body = do(t, ts, "GET", "/healthz", nil, "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", code)
	}
	if m := decode[map[string]string](t, body); m["status"] != "draining" {
		t.Fatalf("healthz body: %v", m)
	}
}

func TestSessionGet(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:2"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open: %d: %s", code, body)
	}
	opened := decode[SessionState](t, body)

	code, body = do(t, ts, "GET", "/v1/sessions/"+opened.Session, nil, "")
	if code != http.StatusOK {
		t.Fatalf("get: %d: %s", code, body)
	}
	if got := decode[SessionState](t, body); got != opened {
		t.Fatalf("get state %+v, want %+v", got, opened)
	}

	code, _ = do(t, ts, "GET", "/v1/sessions/nope", nil, "")
	if code != http.StatusNotFound {
		t.Fatalf("get missing session: %d", code)
	}
}

func TestIdleEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionTTL: time.Minute})
	base := time.Unix(1700000000, 0)
	s.now = func() time.Time { return base }
	code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:2"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open: %d: %s", code, body)
	}
	sid := decode[SessionState](t, body).Session

	s.evictIdle(base.Add(30 * time.Second))
	if s.session(sid) == nil {
		t.Fatal("session evicted before its TTL")
	}
	s.evictIdle(base.Add(2 * time.Minute))
	if s.session(sid) != nil {
		t.Fatal("idle session survived eviction")
	}
	if got := s.StatsSnapshot().Evicted; got != 1 {
		t.Fatalf("evicted counter %d, want 1", got)
	}
}

// TestSaveLoadSessions drains one daemon's sessions to disk and restores
// them in a fresh daemon: the replayed chains must match their records
// (worlds, quotient blocks, marked world) and serve identical verdicts;
// a tampered record is refused rather than served wrong.
func TestSaveLoadSessions(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StateDir: dir})

	code, body := do(t, ts1, "POST", "/v1/sessions", OpenRequest{System: "muddy:3"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open muddy: %d: %s", code, body)
	}
	muddySid := decode[SessionState](t, body).Session
	if code, body = do(t, ts1, "POST", "/v1/sessions/"+muddySid+"/announce",
		AnnounceRequest{Formula: "muddy0 | muddy1 | muddy2"}, ""); code != http.StatusOK {
		t.Fatalf("announce: %d: %s", code, body)
	}
	code, body = do(t, ts1, "POST", "/v1/sessions", OpenRequest{System: "r2d2"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open r2d2: %d: %s", code, body)
	}
	r2d2Sid := decode[SessionState](t, body).Session
	if code, body = do(t, ts1, "POST", "/v1/sessions/"+r2d2Sid+"/announce",
		AnnounceRequest{Formula: "sent"}, ""); code != http.StatusOK {
		t.Fatalf("announce sent: %d: %s", code, body)
	}
	code, body = do(t, ts1, "POST", "/v1/sessions/"+muddySid+"/eval",
		EvalRequest{Formulas: []string{"K0 muddy0"}, Worlds: true}, "")
	if code != http.StatusOK {
		t.Fatalf("pre-drain eval: %d: %s", code, body)
	}
	before := body

	if _, err := s1.SaveSessions(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{StateDir: dir})
	n, err := s2.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d sessions, want 2", n)
	}
	code, body = do(t, ts2, "POST", "/v1/sessions/"+muddySid+"/eval",
		EvalRequest{Formulas: []string{"K0 muddy0"}, Worlds: true}, "")
	if code != http.StatusOK {
		t.Fatalf("post-restore eval: %d: %s", code, body)
	}
	if !bytes.Equal(body, before) {
		t.Fatalf("restored session serves different verdicts:\n%s\nvs\n%s", body, before)
	}
	// New sessions never collide with restored IDs.
	code, body = do(t, ts2, "POST", "/v1/sessions", OpenRequest{System: "muddy:2"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open after restore: %d: %s", code, body)
	}
	if fresh := decode[SessionState](t, body).Session; fresh == muddySid || fresh == r2d2Sid {
		t.Fatalf("fresh session reused a restored ID: %s", fresh)
	}

	// Tamper with the record: the mismatching chain must be skipped.
	path := filepath.Join(dir, "sessions.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sf stateFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	sf.Sessions[0].Worlds++
	data, err = json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, _ := newTestServer(t, Config{StateDir: dir})
	n, err = s3.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d sessions from tampered state, want 1", n)
	}

	// A missing state file restores nothing, without error.
	s4, _ := newTestServer(t, Config{StateDir: t.TempDir()})
	if n, err = s4.LoadSessions(); err != nil || n != 0 {
		t.Fatalf("missing state file: restored %d, err %v", n, err)
	}
}

// TestLoadCommittedQuotientedSessions restores a sessions.json written by
// an earlier build of knowd: quotiented r2d2, attack and scenario chains of
// one or two announcements, plus an unquotiented muddy:8 ladder. Restore
// replays each chain and compares the persisted block map entry for entry,
// so every session must come back — a renumbered or re-shaped quotient
// would orphan sessions already on disk.
func TestLoadCommittedQuotientedSessions(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "quotiented_sessions.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sf stateFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	quotiented := 0
	for _, ps := range sf.Sessions {
		if len(ps.Announced) == 0 {
			t.Fatalf("fixture session %s has no announcement", ps.ID)
		}
		if ps.Blocks != nil {
			quotiented++
		}
	}
	if quotiented < len(sf.Sessions)-1 {
		t.Fatalf("fixture has %d quotiented sessions of %d", quotiented, len(sf.Sessions))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sessions.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{StateDir: dir})
	n, err := s.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sf.Sessions) {
		t.Fatalf("restored %d of %d persisted sessions", n, len(sf.Sessions))
	}
}

// TestSessionOrderWithBootID mints more than ten boot-fenced ids and
// checks that the listing and the state file both keep minting order, so
// "s<boot>-10" sorts after "s<boot>-9" rather than wherever a map
// iteration put it.
func TestSessionOrderWithBootID(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StateDir: dir, BootID: "k3x9"})
	var minted []string
	for i := 0; i < 12; i++ {
		code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:2"}, "")
		if code != http.StatusCreated {
			t.Fatalf("open: %d: %s", code, body)
		}
		minted = append(minted, decode[SessionState](t, body).Session)
	}
	if minted[9] != "sk3x9-10" {
		t.Fatalf("tenth id = %q, want sk3x9-10", minted[9])
	}

	code, body := do(t, ts, "GET", "/v1/sessions", nil, "")
	if code != http.StatusOK {
		t.Fatalf("list: %d: %s", code, body)
	}
	var listed []string
	for _, st := range decode[[]SessionState](t, body) {
		listed = append(listed, st.Session)
	}
	if fmt.Sprint(listed) != fmt.Sprint(minted) {
		t.Fatalf("listing order %v, want minting order %v", listed, minted)
	}

	path, err := s.SaveSessions()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sf stateFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	var saved []string
	for _, ps := range sf.Sessions {
		saved = append(saved, ps.ID)
	}
	if fmt.Sprint(saved) != fmt.Sprint(minted) {
		t.Fatalf("sessions.json order %v, want minting order %v", saved, minted)
	}
}

// TestServeShutdown exercises the real listener path: serve, answer, then
// drain — Serve returns cleanly and the state file lands on disk.
func TestServeShutdown(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{StateDir: dir, SessionTTL: time.Minute})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	url := "http://" + l.Addr().String()
	resp, err := http.Post(url+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(`{"system":"muddy:2"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open over listener: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions.json")); err != nil {
		t.Fatalf("drain did not persist sessions: %v", err)
	}
}

func TestSystemsAndStatsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := do(t, ts, "GET", "/v1/systems", nil, "")
	if code != http.StatusOK {
		t.Fatalf("systems: %d", code)
	}
	infos := decode[[]SystemInfo](t, body)
	specs := make(map[string]bool, len(infos))
	for _, in := range infos {
		specs[in.Spec] = true
	}
	for _, want := range []string{"muddy:N", "attack", "r2d2", "scenario:bounded", "scenario:dup"} {
		if !specs[want] {
			t.Errorf("systems listing misses %q: %v", want, specs)
		}
	}

	code, body = do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:2"}, "")
	if code != http.StatusCreated {
		t.Fatalf("open: %d: %s", code, body)
	}
	code, body = do(t, ts, "GET", "/v1/sessions", nil, "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if lst := decode[[]SessionState](t, body); len(lst) != 1 || lst[0].System != "muddy:2" {
		t.Fatalf("session list: %s", body)
	}
	code, body = do(t, ts, "GET", "/v1/stats", nil, "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st := decode[Stats](t, body); st.Sessions != 1 || st.Opened != 1 {
		t.Fatalf("stats: %s", body)
	}
}
