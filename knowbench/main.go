// Command knowbench is the serving benchmark: it boots the real knowd (and,
// for routed-durable, a knowrouter over two knowd shards) in this process
// on loopback listeners, drives it through internal/client with load drawn
// from a seed, checks every answer, and prints the end-to-end metrics.
// With --trace 1 it runs the workload again with spans at the boundaries
// it owns and prints per-layer metrics and a self-time table instead.
//
// Usage (from the repository root; knowbench/run.sh builds and runs it):
//
//	knowbench --workload eval-warm --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/client"
)

func main() {
	if os.Getenv(probeEnv) == "1" {
		if err := probeChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "knowbench probe:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knowbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "eval-warm", "workload: eval-warm, announce-ladder or routed-durable")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run (set-up and checks come on top)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "knowbench"), "directory for state files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "knowbench: --seconds must be positive")
		return 2
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "knowbench:", err)
		return 2
	}
	if err := w.prepare(); err != nil {
		fmt.Fprintf(stderr, "knowbench: prepare %s: %v\n", w.name(), err)
		return 1
	}
	return execute(o, w, stdout, stderr)
}

// execute measures the prepared workload w, prints the result line and
// returns the exit status. A run in which any op failed or any answer
// disagreed with the reference still prints its result, marked not
// correct, but exits 1, so its figures are never taken as a measurement.
func execute(o options, w workload, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(2)
	res, err := measure(o, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "knowbench:", err)
		return 1
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(stderr, "knowbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct || res.failed > 0 {
		fmt.Fprintf(stderr, "knowbench: %s: %d of %d ops failed or answered wrong\n", w.name(), res.failed, res.attempted)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or base, for the human-readable lines
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	// printed are figures shown on the human-readable lines but left out
	// of the result line, because they do not repeat from run to run.
	printed []metric
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *result) addPrinted(name string, value float64, unit, note string) {
	r.printed = append(r.printed, metric{name, value, unit, note})
}

func (r *result) json() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]mv)}
	for _, m := range r.metrics {
		out.Metrics[m.name] = mv{m.value, m.unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// Run shape. The fractions split --seconds between the phases of the
// untraced run; the traced run has its own (traced.go).
const (
	// setup_s is the median of repeated set-ups: at least minSetups, and
	// as many more as fit in setupBudget. The host's speed shifts on a
	// scale of a second, so a median over several seconds of set-ups
	// repeats from run to run where one over a few set-ups did not.
	minSetups   = 5
	setupBudget = 3 * time.Second
	// probeEvery is how much measured load runs between two host probe
	// samples (probe.go); the throughput is taken per such segment.
	probeEvery = 1500 * time.Millisecond
	// setupProbeEvery is the same for the repeated set-ups.
	setupProbeEvery = 500 * time.Millisecond
	olFrac          = 0.17 // the fixed-rate open loop
	ladderFrac      = 0.05 // the rate ladder, reported but not gated
	// lifecycleFrac is eval-warm's share of the run spent on light session
	// lifecycles, which give the workload open and announce figures.
	lifecycleFrac = 0.13
)

// ladderRates is the open-loop rate ladder, req/s; each rung offers
// rungSamples requests and prints its p99. The ladder is not a gated
// metric: its top passing rung did not repeat from run to run on a shared
// two-CPU host.
var ladderRates = []float64{2000, 4000, 6000}

const rungSamples = 1000

func measure(o options, w workload, log io.Writer) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	stateRoot, err := os.MkdirTemp(o.out, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateRoot)
	cfg := w.stackConfig()
	cfg.stateRoot = stateRoot
	if o.trace {
		return traced(o, w, cfg, log)
	}
	return untraced(o, w, cfg, log)
}

// setupStack boots the stack and runs the workload's set-up, reporting
// how long both took.
func setupStack(w workload, cfg stackConfig, rep int) (*stack, time.Duration, error) {
	cfg.stateRoot = filepath.Join(cfg.stateRoot, fmt.Sprintf("setup%d", rep))
	t0 := time.Now()
	st, err := startStack(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := w.setup(st); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("setup %s: %w", w.name(), err)
	}
	return st, time.Since(t0), nil
}

func seconds(frac float64, o options) time.Duration {
	return time.Duration(frac * o.seconds * float64(time.Second))
}

// segments cuts d into whole segments of about probeEvery.
func segments(d time.Duration) (int, time.Duration) {
	n := max(int((d+probeEvery/2)/probeEvery), 1)
	return n, d / time.Duration(n)
}

// closedSegments runs body on the clients for d in all, in segments with a
// host probe sample after each, and returns each segment's completion
// rate. The clients finish the op or script in hand at each segment's
// end, so no op spans a probe.
func closedSegments(d time.Duration, pr *probe, clients []*client.Client, recs []*recorder,
	body func(w int, c *client.Client, rec *recorder, deadline time.Time)) ([]float64, error) {
	completed := func() int {
		n := 0
		for _, r := range recs {
			n += r.completed()
		}
		return n
	}
	n, seg := segments(d)
	var rates []float64
	for range n {
		before := completed()
		deadline := time.Now().Add(seg)
		wall := closedLoop(clients, recs, func(i int, c *client.Client, rec *recorder) { body(i, c, rec, deadline) })
		rates = append(rates, float64(completed()-before)/wall.Seconds())
		if err := pr.measure(); err != nil {
			return nil, fmt.Errorf("host probe: %w", err)
		}
	}
	return rates, nil
}

// untraced is the end-to-end run: set-up (repeated), the open loop on the
// fresh stack, the closed loop, the heap, then the post-run checks. Host
// probe samples are taken between set-ups and between segments of the
// measured load, and every timed metric is scaled by them (probe.go).
func untraced(o options, w workload, cfg stackConfig, log io.Writer) (res *result, err error) {
	pr, err := startProbe()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	defer func() {
		if cerr := pr.close(); cerr != nil && err == nil {
			err = fmt.Errorf("host probe: %w", cerr)
		}
	}()
	var setups []time.Duration
	var spent, sinceProbe time.Duration
	var st *stack
	for rep := 0; ; rep++ {
		s, d, err := setupStack(w, cfg, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		spent += d
		sinceProbe += d
		done := len(setups) >= minSetups && spent >= setupBudget
		if done || sinceProbe >= setupProbeEvery {
			if err := pr.measure(); err != nil {
				s.close()
				return nil, fmt.Errorf("host probe: %w", err)
			}
			sinceProbe = 0
		}
		if done {
			st = s
			break
		}
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	defer st.close()
	clients := st.clients(2, o.seed, nil)
	total := &recorder{}

	// Open loop first, on the freshly set-up stack, so the closed loop's
	// sessions cannot spill into it. It runs in segments, each on a fresh
	// schedule, with a probe sample after each.
	rate := w.olRate()
	var fixed olResult
	olN, olSeg := segments(seconds(olFrac, o))
	for range olN {
		base := fixed.sent
		seg := openLoop(max(int(rate*olSeg.Seconds()), 100), rate, clients, func(c *client.Client, i int) error {
			return w.olEval(c, base+i)
		})
		fixed.merge(seg)
		if err := pr.measure(); err != nil {
			return nil, fmt.Errorf("host probe: %w", err)
		}
	}
	total.addOL(&fixed)
	for _, rate := range ladderRates {
		r := openLoop(rungSamples, rate, clients, w.olEval)
		total.addOL(&r)
		fmt.Fprintf(log, "ladder rung %5.0f req/s: eval p99 %.3f ms from due time (n=%d), tail lag %.3f ms (raw, not scaled)\n",
			rate, ms(quantile(slices.Clone(r.lat), 0.99)), r.sent, ms(r.tailLag))
	}

	// The closed loop.
	closedDur := seconds(1-olFrac-ladderFrac, o)
	if ew, ok := w.(*evalWarm); ok {
		// The light lifecycles run first, in their own closed loop, so the
		// eval loop that follows is pure reads.
		life := []*recorder{{}, {}}
		lifeDur := seconds(lifecycleFrac, o)
		if _, err := closedSegments(lifeDur, pr, clients, life, ew.lifecycle); err != nil {
			return nil, err
		}
		for _, r := range life {
			total.merge(r)
		}
		closedDur -= lifeDur
	}
	recs := []*recorder{{}, {}}
	rates, err := closedSegments(closedDur, pr, clients, recs, w.closed)
	if err != nil {
		return nil, err
	}
	main := &recorder{}
	for _, r := range recs {
		main.merge(r)
	}
	total.merge(main)

	// Every time is scaled to the probe's reference speed; a rate by the
	// inverse.
	scale := pr.scale()
	probeMed := quantile(slices.Clone(pr.samples), 0.5)
	fmt.Fprintf(log, "host probe: median round trip %.1f us over %d samples (quartiles %.1f-%.1f us); reference %.1f us, so times x %.4f, rates / %.4f\n",
		us(probeMed), len(pr.samples), us(quantile(slices.Clone(pr.samples), 0.25)), us(quantile(slices.Clone(pr.samples), 0.75)),
		us(probeRefNs), scale, scale)
	res = &result{}
	setupMed := median(setups)
	res.add("setup_s", setupMed.Seconds()*scale, "s", fmt.Sprintf("median of %d set-ups; raw %.4f s, quartiles %.4f-%.4f s, first %.4f s",
		len(setups), setupMed.Seconds(), quantile(slices.Clone(setups), 0.25).Seconds(), quantile(slices.Clone(setups), 0.75).Seconds(), setups[0].Seconds()))
	tput := quantile(slices.Clone(rates), 0.5)
	res.add("throughput_ops_s", tput/scale, "1/s", fmt.Sprintf("median over %d segments of %v; raw %.1f 1/s; %d ops", len(rates), closedDur/time.Duration(len(rates)), tput, main.completed()))
	for _, k := range []opKind{kOpen, kEval, kAnnounce} {
		lat := main.lat[k]
		if len(lat) == 0 {
			lat = total.lat[k] // eval-warm's opens and announces come from its lifecycles
		}
		p50, c50 := chunked(lat, p50Chunk, 0.5)
		p99, c99 := chunked(lat, p99Chunk, 0.99)
		res.add(k.String()+"_p50_ms", ms(p50)*scale, "ms", fmt.Sprintf("median over %d windows; raw %.4f ms; n=%d", c50, ms(p50), len(lat)))
		note := fmt.Sprintf("median over %d windows of %d; raw %.4f ms; n=%d", c99, p99Chunk, ms(p99), len(lat))
		if len(lat) < p99Chunk {
			note = fmt.Sprintf("n=%d: fewer than 10 samples beyond p99", len(lat))
		}
		// The p99s are printed, not gated: set by the host's stalls and the
		// rare heavy op, they spread 25-50% between runs of one commit even
		// when scaled by the host probe.
		res.addPrinted(k.String()+"_p99_ms", ms(p99)*scale, "ms", note)
	}
	// The open-loop p50 is printed, not gated: at a fixed offered rate
	// the queueing makes it move more than in proportion to the host's
	// speed, and it spread 11-23% between runs of one commit even when
	// scaled by the host probe.
	olp50, c50 := chunked(fixed.samples(), p50Chunk, 0.5)
	res.addPrinted("ol_eval_p50_ms", ms(olp50)*scale, "ms", fmt.Sprintf("%.0f req/s from due time, median over %d windows; raw %.4f ms; n=%d", rate, c50, ms(olp50), fixed.sent))
	// The open-loop p99 is printed, not gated: charged from due time, it
	// is set by how long the host stalled the process, and it spread
	// 30-500% between runs of one commit.
	olp99, c99 := chunked(fixed.samples(), p99Chunk, 0.99)
	fmt.Fprintf(log, "open loop %.0f req/s: eval p99 %.3f ms from due time (raw, median over %d windows, not gated), generator lag p99 %.3f ms\n",
		rate, ms(olp99), c99, ms(quantile(fixed.lag, 0.99)))
	// The stack is still up. The benchmark's own samples are summarised
	// by now and dropped before the heap is read.
	total.lat = [numKinds][]sample{}
	res.add("heap_live_mb", liveHeapMB(), "MB", "live heap after forced GC, whole process")

	if err := st.close(); err != nil {
		return nil, fmt.Errorf("stack shutdown: %w", err)
	}
	wrong, verr := w.verify()
	if verr != nil && wrong == 0 {
		return nil, verr
	}
	total.failed += wrong
	total.wrong += wrong
	if verr != nil {
		total.errs = append(total.errs, verr.Error())
	}
	res.correct, res.attempted, res.failed = total.failed == 0, total.attempted, total.failed

	fmt.Fprintf(log, "workload %s seed %d: %d ops attempted, %d failed, %d wrong; ops_failed_frac %.6f\n",
		w.name(), o.seed, res.attempted, res.failed, total.wrong, float64(res.failed)/float64(max(res.attempted, 1)))
	for _, e := range total.errs {
		fmt.Fprintln(log, "  error:", e)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(log, "%-18s %12.4f %-4s  %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, m := range res.printed {
		fmt.Fprintf(log, "%-18s %12.4f %-4s  %s (not gated)\n", m.name, m.value, m.unit, m.note)
	}
	return res, nil
}

func median(ds []time.Duration) time.Duration {
	return quantile(slices.Clone(ds), 0.5)
}

// liveHeapMB forces a collection and reads the live heap it marked.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
