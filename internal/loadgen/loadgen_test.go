package loadgen

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaosproxy"
	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/server"
)

// TestScheduleDeterminism: one seed, one schedule — the canonical dump is
// byte-identical across builds, order-independent in its sub-streams, and
// actually sensitive to the seed.
func TestScheduleDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Workers: 4, Sessions: 6, CloseProb: 0.3}
	var a, b bytes.Buffer
	if err := Build(cfg).Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := Build(cfg).Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("equal configs built different schedules")
	}
	var c bytes.Buffer
	cfg.Seed = 43
	if err := Build(cfg).Encode(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds built identical schedules")
	}

	// The default mix at this size exercises every op kind.
	counts := Build(Config{Seed: 42, Workers: 4, Sessions: 6, CloseProb: 0.3}).CountByKind()
	for _, kind := range []OpKind{OpOpen, OpEval, OpAnnounce, OpClose} {
		if counts[kind] == 0 {
			t.Errorf("schedule has no %s ops: %v", kind, counts)
		}
	}
	if counts[OpOpen] != 4*6 {
		t.Errorf("opens %d, want one per (worker, session)", counts[OpOpen])
	}

	// Sub-streams are per-(worker, session): a worker's scripts do not
	// shift when another worker's count changes.
	small := Build(Config{Seed: 42, Workers: 1, Sessions: 2})
	big := Build(Config{Seed: 42, Workers: 3, Sessions: 2})
	for k := range small.Opens[0] {
		if small.Opens[0][k].Encode() != big.Opens[0][k].Encode() {
			t.Fatalf("worker 0 script %d shifted when the fleet grew", k)
		}
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("")
	if err != nil || m != DefaultMix {
		t.Fatalf("empty mix: %+v, %v", m, err)
	}
	m, err = ParseMix("muddy=2,attack=1")
	if err != nil || m.Muddy != 2 || m.Attack != 1 || m.Scenario != 0 || m.R2D2 != 0 {
		t.Fatalf("partial mix: %+v, %v", m, err)
	}
	for _, bad := range []string{"muddy", "muddy=-1", "quantum=3", "muddy=0,attack=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
	if rt, err := ParseMix(DefaultMix.String()); err != nil || rt != DefaultMix {
		t.Fatalf("mix did not round-trip through String: %+v, %v", rt, err)
	}
}

func TestFinalLinks(t *testing.T) {
	sc := Build(Config{Seed: 7, Workers: 2, Sessions: 3})
	links := sc.FinalLinks()
	if len(links) != 2*3 {
		t.Fatalf("links for %d sessions, want 6 (CloseProb 0)", len(links))
	}
	// Re-derive from the raw ops: links must equal announce counts.
	want := make(map[string]int)
	for _, op := range sc.Ops() {
		switch op.Kind {
		case OpOpen:
			want[op.ID()] = 0
		case OpAnnounce:
			want[op.ID()]++
		}
	}
	for id, n := range want {
		if links[id] != n {
			t.Errorf("%s: final link %d, want %d", id, links[id], n)
		}
	}
}

// runFleet executes sc against baseURL with per-worker seeded clients.
func runFleet(t *testing.T, sc *Schedule, baseURL string, afterOp func(int, Op)) *Result {
	t.Helper()
	res, err := sc.Run(RunConfig{
		NewClient: func(w int) *client.Client {
			return client.New(client.Config{
				BaseURL:     baseURL,
				Seed:        sc.Cfg.Seed + int64(w)*7919,
				MaxAttempts: 30,
				BaseDelay:   time.Millisecond,
				MaxDelay:    8 * time.Millisecond,
			})
		},
		AfterOp: afterOp,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetAgainstLiveServer: the fleet drives a real daemon handler; every
// op succeeds, records come out in canonical order, two runs of one seed
// produce byte-identical records on fresh daemons, and the histograms
// account for every op.
func TestFleetAgainstLiveServer(t *testing.T) {
	sc := Build(Config{Seed: 11, Workers: 3, Sessions: 3, CloseProb: 0.3})

	run := func() *Result {
		srv := server.New(server.Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var calls atomic.Int64
		res := runFleet(t, sc, ts.URL, func(done int, op Op) { calls.Add(1) })
		if int(calls.Load()) != sc.NumOps() {
			t.Fatalf("AfterOp saw %d ops, schedule has %d", calls.Load(), sc.NumOps())
		}

		// The live daemon's chains must sit exactly at the schedule's final
		// links: nothing lost, nothing doubled.
		links := sc.FinalLinks()
		c := client.New(client.Config{BaseURL: ts.URL})
		states, err := c.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		if len(states) != len(links) {
			t.Fatalf("daemon holds %d sessions, schedule leaves %d open", len(states), len(links))
		}
		return res
	}
	r1 := run()
	if r1.Errors > 0 {
		for _, rec := range r1.Records {
			if rec.Err != "" {
				t.Errorf("op failed: %s: %s", rec.Line, rec.Err)
			}
		}
		t.FailNow()
	}
	if len(r1.Records) != sc.NumOps() {
		t.Fatalf("%d records for %d ops", len(r1.Records), sc.NumOps())
	}
	// Records are in canonical schedule order regardless of interleaving.
	ops := sc.Ops()
	for i, rec := range r1.Records {
		if rec.Line != ops[i].Encode() {
			t.Fatalf("record %d is %q, schedule has %q", i, rec.Line, ops[i].Encode())
		}
	}
	// Every op is in exactly one histogram bucket.
	var n uint64
	for _, h := range r1.Hists {
		n += h.Count()
	}
	if n != uint64(sc.NumOps()) {
		t.Fatalf("histograms hold %d observations for %d ops", n, sc.NumOps())
	}

	r2 := run()
	if fmt.Sprint(r1.Records) != fmt.Sprint(r2.Records) {
		t.Fatal("two runs of one seed diverged on fresh daemons")
	}
}

// TestFleetThroughChaos: the same schedule through a fault-injecting proxy
// — delay, loss, duplication, trickled and severed responses — must
// converge to records byte-identical with the clean run, with every
// mutation executed exactly once server-side.
func TestFleetThroughChaos(t *testing.T) {
	sc := Build(Config{Seed: 5, Workers: 2, Sessions: 2})

	cleanSrv := server.New(server.Config{})
	cleanTS := httptest.NewServer(cleanSrv.Handler())
	defer cleanTS.Close()
	clean := runFleet(t, sc, cleanTS.URL, nil)
	if clean.Errors > 0 {
		t.Fatalf("clean run failed %d ops", clean.Errors)
	}

	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	proxy, err := chaosproxy.New(chaosproxy.Config{
		Target: ts.URL,
		Plan: faults.Plan{
			Seed:  5,
			Delay: faults.Uniform{Min: 1, MaxD: 3},
			Drop:  0.3,
			Dup:   0.3,
		},
		Tick:      time.Millisecond,
		SlowLoris: 0.2,
		Sever:     0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	chaos := runFleet(t, sc, proxyTS.URL, nil)
	if chaos.Errors > 0 {
		for _, rec := range chaos.Records {
			if rec.Err != "" {
				t.Errorf("chaos op failed: %s: %s", rec.Line, rec.Err)
			}
		}
		t.FailNow()
	}
	if fmt.Sprint(chaos.Records) != fmt.Sprint(clean.Records) {
		t.Fatal("chaos run diverged from clean run")
	}
	counts := sc.CountByKind()
	sst := srv.StatsSnapshot()
	if sst.Opened != int64(counts[OpOpen]) {
		t.Errorf("opens executed %d times, want %d", sst.Opened, counts[OpOpen])
	}
	if sst.Announces+sst.Replays < int64(counts[OpAnnounce]) || sst.Announces > int64(counts[OpAnnounce]) {
		t.Errorf("announces executed %d times (replays %d), schedule has %d",
			sst.Announces, sst.Replays, counts[OpAnnounce])
	}
	pst := proxy.StatsSnapshot()
	if pst.DroppedRequests+pst.DroppedResponses+pst.Duplicated+pst.Severed == 0 {
		t.Fatalf("proxy injected nothing; the run proves nothing: %+v", pst)
	}
}

// TestWriteReport smoke-checks the markdown renderer over a real run.
func TestWriteReport(t *testing.T) {
	sc := Build(Config{Seed: 3, Workers: 2, Sessions: 2})
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res := runFleet(t, sc, ts.URL, nil)

	var buf bytes.Buffer
	if err := WriteReport(&buf, sc, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# knowload report",
		"-seed 3 -workers 2 -sessions 2",
		"## Latency by op type",
		"| open |",
		"## Final chain links",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report misses %q:\n%s", want, out)
		}
	}
}
