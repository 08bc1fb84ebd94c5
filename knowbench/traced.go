package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/client"
)

// Traced-run shape, as fractions of --seconds.
const (
	windowFrac   = 0.04 // each of the eight closed-loop windows
	tracedOLFrac = 0.08 // the fixed-rate open loop that measures generator lag
	replayFrac   = 0.25 // the kernel replay's time budget
	maxReplayOps = 20000
	persistReps  = 5
)

// cpuSample reads the runtime's cumulative allocation and CPU counters.
type cpuSample struct {
	allocs     uint64
	gcCPU, cpu float64
}

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSample{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// traced is the per-layer run: the same stack with every boundary the
// benchmark owns wrapped. The closed loop alternates untraced and traced
// windows (U T T U T U U T) on one stack, so tracing overhead is the
// throughput difference between them; allocation and GC figures come from
// the untraced windows. The traced windows' op stream is then replayed
// against the kernel.
func traced(o options, w workload, cfg stackConfig, log io.Writer) (*result, error) {
	tr := newTracer()
	cfg.tr = tr
	cfg.stateDir = true
	st, _, err := setupStack(w, cfg, 0)
	if err != nil {
		return nil, err
	}
	defer st.close()

	recs := []*recorder{{}, {}}
	clients := st.clients(2, o.seed, recs)
	var ops, opsTraced int
	var dur, durTraced time.Duration
	var cpu cpuSample
	var cpuOps int
	winDur := seconds(windowFrac, o)
	if ew, ok := w.(*evalWarm); ok {
		// A traced lifecycle window, outside the overhead comparison, gives
		// eval-warm's open, announce and close layers their spans.
		tr.on.Store(true)
		deadline := time.Now().Add(winDur / 4)
		closedLoop(clients, recs, func(j int, c *client.Client, rec *recorder) { ew.lifecycle(j, c, rec, deadline) })
	}
	for _, on := range []bool{false, true, true, false, true, false, false, true} {
		tr.on.Store(on)
		before := make([]int, len(recs))
		for j, r := range recs {
			before[j] = r.completed()
		}
		c0 := readCPU()
		deadline := time.Now().Add(winDur)
		d := closedLoop(clients, recs, func(j int, c *client.Client, rec *recorder) { w.closed(j, c, rec, deadline) })
		c1 := readCPU()
		n := 0
		for j, r := range recs {
			n += r.completed() - before[j]
		}
		if on {
			opsTraced += n
			durTraced += d
		} else {
			ops += n
			dur += d
			cpu.allocs += c1.allocs - c0.allocs
			cpu.gcCPU += c1.gcCPU - c0.gcCPU
			cpu.cpu += c1.cpu - c0.cpu
			cpuOps += n
		}
	}
	tr.on.Store(false)

	fixed := openLoop(max(int(w.olRate()*seconds(tracedOLFrac, o).Seconds()), 100), w.olRate(), clients, w.olEval)

	total := &recorder{}
	for _, r := range recs {
		total.merge(r)
	}
	total.attempted += fixed.sent
	total.failed += fixed.failed
	total.wrong += fixed.wrong
	retries := 0
	for _, c := range clients {
		retries += c.Retries()
	}
	ks := st.knowdStats()

	// Persistence at the workload's resident count, measured directly.
	var saves []time.Duration
	var path string
	for i := 0; i < persistReps; i++ {
		t0 := time.Now()
		p, err := st.knowds[0].SaveSessions()
		if err != nil {
			return nil, fmt.Errorf("SaveSessions: %w", err)
		}
		saves = append(saves, time.Since(t0))
		path = p
	}
	saved := st.knowds[0].StatsSnapshot().Sessions
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	res := &result{}
	if st.router != nil {
		rs := st.router.StatsSnapshot()
		res.add("cluster.standby_rebuilds", float64(rs.StandbyRebuilds), "count", "")
		res.add("cluster.hedges", float64(rs.Hedges), "count", "")
		res.add("cluster.hedged_mutations", float64(rs.HedgedMutations), "count", "")
		res.add("cluster.hedge_win_frac", frac(rs.HedgeWins, rs.Hedges), "ratio", fmt.Sprintf("%d wins / %d hedges", rs.HedgeWins, rs.Hedges))
	} else {
		for _, n := range []string{"cluster.standby_rebuilds", "cluster.hedges", "cluster.hedged_mutations"} {
			res.add(n, 0, "count", "no router on this workload")
		}
		res.add("cluster.hedge_win_frac", 0, "ratio", "no router on this workload")
	}
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("stack shutdown: %w", err)
	}

	// The kernel replay of the traced windows' op stream.
	tr.on.Store(true)
	rp := &replayer{tr: tr, sessions: make(map[string]*refSystem)}
	var residents []*resident
	if ew, ok := w.(*evalWarm); ok {
		residents = ew.residents
	}
	stream := total.ops
	if len(stream) > maxReplayOps {
		stream = stream[:maxReplayOps]
	}
	replayed, err := rp.run(stream, residents, seconds(replayFrac, o))
	if err != nil {
		return nil, err
	}
	tr.on.Store(false)

	wrong, verr := w.verify()
	if verr != nil && wrong == 0 {
		return nil, verr
	}
	total.failed += wrong
	total.wrong += wrong
	res.correct = total.failed == 0
	res.attempted, res.failed = total.attempted, total.failed

	a := tr.analyse()
	for _, k := range []string{"eval", "announce"} {
		res.add("client.transport_us."+k, a.transportUS(k), "us", fmt.Sprintf("n=%d client calls", a.count("client."+k)))
	}
	res.add("client.retries", float64(retries), "count", "")
	for _, k := range []string{"open", "eval", "announce", "close"} {
		res.add("server.handler_us."+k, a.meanUS("server.handler."+k), "us", fmt.Sprintf("n=%d", a.count("server.handler."+k)))
	}
	res.add("server.decode_us.eval", a.meanUS("json.decode.eval"), "us", "")
	res.add("server.decode_us.announce", a.meanUS("json.decode.announce"), "us", "")
	res.add("server.encode_us.eval", a.meanUS("json.encode.eval"), "us", "")
	nParse, nEval := a.count("logic.parse"), a.count("replay.eval")
	res.add("logic.parse_us", a.meanUS("logic.parse"), "us", fmt.Sprintf("per formula, n=%d", nParse))
	res.add("logic.formulas_per_op", frac(int64(nParse-a.count("replay.announce")), int64(nEval)), "count", fmt.Sprintf("formulas per eval op, %d eval ops", nEval))
	res.add("kripke.evalbatch_us", a.meanUS("kripke.evalbatch"), "us", fmt.Sprintf("n=%d", a.count("kripke.evalbatch")))
	res.add("kripke.announce_eval_us", a.meanUS("kripke.announce_eval"), "us", "")
	res.add("kripke.restrict_us", a.meanUS("kripke.restrict"), "us", fmt.Sprintf("n=%d", rp.restricts))
	res.add("kripke.allocs_per_restrict", frac(int64(rp.allocs), int64(rp.restricts)), "count", "")
	res.add("kripke.quotient_ratio", fdiv(rp.ratioSum, float64(rp.restricts)), "ratio", "mean quotient worlds / worlds after each restrict")
	res.add("muddy.build_ms", a.meanUS("muddy.build")/1e3, "ms", fmt.Sprintf("n=%d", a.count("muddy.build")))
	res.add("scenario.build_ms", a.meanUS("scenario.build")/1e3, "ms", fmt.Sprintf("n=%d", a.count("scenario.build")))
	res.add("kripke.quotient_build_ms", a.meanUS("kripke.quotient_build")/1e3, "ms", fmt.Sprintf("n=%d", a.count("kripke.quotient_build")))
	res.add("server.persist_ms", ms(median(saves)), "ms", fmt.Sprintf("median of %d SaveSessions at %d sessions", len(saves), saved))
	res.add("server.state_bytes", float64(fi.Size()), "bytes", "sessions.json")
	for _, k := range []string{"open", "eval", "announce"} {
		res.add("cluster.handler_us."+k, a.meanUS("cluster.handler."+k), "us", fmt.Sprintf("n=%d", a.count("cluster.handler."+k)))
	}
	var upN int
	var upSum float64
	for _, k := range []string{"open", "eval", "announce", "close"} {
		n := a.count("cluster.upstream." + k)
		upN += n
		upSum += a.meanUS("cluster.upstream."+k) * float64(n)
	}
	res.add("cluster.upstream_us", fdiv(upSum, float64(upN)), "us", fmt.Sprintf("n=%d", upN))
	for _, k := range []string{"eval", "announce"} {
		res.add("cluster.self_us."+k, a.meanSelfUS("cluster.handler."+k), "us", "router handler minus upstream calls")
	}
	for _, k := range []string{"open", "eval", "announce"} {
		up, calls := a.count("cluster.upstream."+k), a.count("client."+k)
		res.add("cluster.upstream_per_op."+k, frac(int64(up), int64(calls)), "ratio", fmt.Sprintf("%d upstream / %d client ops", up, calls))
	}
	res.add("server.shed", float64(ks.Shed), "count", "")
	res.add("server.dedupe_hits", float64(ks.DedupeHits), "count", "")
	res.add("server.replays", float64(ks.Replays), "count", "")
	res.add("server.panics", float64(ks.Panics), "count", "")
	res.add("runtime.allocs_per_op", frac(int64(cpu.allocs), int64(cpuOps)), "count", fmt.Sprintf("untraced windows, %d ops", cpuOps))
	res.add("runtime.gc_cpu_frac", fdiv(cpu.gcCPU, cpu.cpu), "ratio", "GC CPU / all CPU, untraced windows")
	res.add("gen.lag_p99_ms", ms(quantile(fixed.lag, 0.99)), "ms", fmt.Sprintf("n=%d at %.0f req/s", fixed.sent, w.olRate()))
	tput, tputTraced := float64(ops)/dur.Seconds(), float64(opsTraced)/durTraced.Seconds()
	res.add("trace.throughput_ops_s", tputTraced, "1/s", fmt.Sprintf("%d ops in traced windows", opsTraced))
	res.add("trace.untraced_throughput_ops_s", tput, "1/s", fmt.Sprintf("%d ops in untraced windows", ops))
	res.add("trace.overhead_frac", fdiv(tput-tputTraced, tput), "ratio", "(untraced - traced) / untraced throughput")
	res.add("trace.unparented_spans", float64(a.unparented), "count", "handler or upstream spans with no caller found")

	fmt.Fprintf(log, "workload %s seed %d (traced): %d ops attempted, %d failed; %d ops replayed on the kernel\n",
		w.name(), o.seed, res.attempted, res.failed, replayed)
	a.writeTable(log, w.name())
	sanity(a, rp, log)
	for _, m := range res.metrics {
		fmt.Fprintf(log, "%-34s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	// One file per workload, overwritten by the next traced run, so
	// repeated runs do not pile up tens of megabytes each.
	spans := filepath.Join(o.out, fmt.Sprintf("spans-%s.jsonl", w.name()))
	if err := a.writeSpans(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans written to %s\n", spans)
	return res, nil
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func fdiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sanity prints eval-warm's muddy:8 split of one eval request — kernel,
// JSON, parse and the whole client call — beside the ROADMAP baseline
// (kernel ~20 µs, JSON ~12 µs, parse ~2 µs per formula, request
// 105-130 µs, measured for a 3-formula batch).
func sanity(a *analysis, rp *replayer, log io.Writer) {
	reqs := make(map[string]bool)
	var kernel, jsonT, parse, client, nParse float64
	var n, nClient int
	for _, i := range rp.muddy8 {
		n++
		reqs[a.spans[i].Req] = true
		for _, c := range a.children[i] {
			cs := a.spans[c]
			d := float64(cs.End-cs.Start) / 1e3
			switch cs.Name {
			case "kripke.evalbatch":
				kernel += d
			case "json.decode.eval", "json.encode.eval":
				jsonT += d
			case "logic.parse":
				parse += d
				nParse++
			}
		}
	}
	for _, s := range a.spans {
		if s.Name == "client.eval" && reqs[s.Req] {
			client += float64(s.End-s.Start) / 1e3
			nClient++
		}
	}
	if n == 0 || nClient == 0 {
		return
	}
	fmt.Fprintf(log, "sanity, eval-warm muddy:8 (%d replayed evals, %d traced client calls): kernel %.1f µs, JSON %.1f µs, parse %.1f µs/formula (%.1f formulas/op), client call %.1f µs\n",
		n, nClient, kernel/float64(n), jsonT/float64(n), parse/nParse, nParse/float64(n), client/float64(nClient))
	fmt.Fprintln(log, "  ROADMAP baseline, 3 formulas/op, untraced: kernel ~20 µs, JSON ~12 µs, parse ~2 µs/formula, request 105-130 µs")
}
