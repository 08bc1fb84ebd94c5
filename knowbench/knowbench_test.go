package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the host probe's child, as the
// knowbench binary does.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) == "1" {
		if err := probeChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "knowbench probe:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// requires every metric BENCHMARK.json names, with its unit, no failed op
// and every correctness check passing.
func TestShortRuns(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "3", "--seconds", "2", "--trace", trace, "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// wrongAfterSetup is eval-warm with every reference verdict of its first
// resident made wrong once set-up is done, so that set-up's own checked
// warm-up passes and the measured phases answer wrong.
type wrongAfterSetup struct {
	*evalWarm
	ref []verdict
}

func (w *wrongAfterSetup) setup(st *stack) error {
	r := w.residents[0]
	r.ref = slices.Clone(w.ref)
	if err := w.evalWarm.setup(st); err != nil {
		return err
	}
	for i := range r.ref {
		r.ref[i].count++
	}
	return nil
}

// TestWrongAnswerFails runs eval-warm against wrong reference verdicts:
// the run must still print its result, marked not correct with failed
// ops, and exit nonzero.
func TestWrongAnswerFails(t *testing.T) {
	ew := &evalWarm{seed: 3}
	if err := ew.prepare(); err != nil {
		t.Fatal(err)
	}
	w := &wrongAfterSetup{evalWarm: ew, ref: slices.Clone(ew.residents[0].ref)}
	var stdout, stderr bytes.Buffer
	o := options{workload: w.name(), seed: 3, seconds: 1, out: t.TempDir()}
	if code := execute(o, w, &stdout, &stderr); code == 0 {
		t.Fatalf("exit 0 with wrong reference verdicts\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d with wrong reference verdicts", res.Correct, res.Failed)
	}
}

// TestSelfTime checks that a span's self time subtracts the union of its
// children, not their sum, and only the part inside the span.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	p := tr.record("parent", -1, "", at(0), at(100))
	tr.record("child", p, "", at(10), at(40))
	tr.record("child", p, "", at(30), at(60))  // overlaps the first
	tr.record("child", p, "", at(90), at(120)) // runs past the parent
	a := tr.analyse()
	if got, want := a.self[p], int64(100-50-10); got != want {
		t.Fatalf("self time %d, want %d", got, want)
	}
}

// TestChunked checks the windowed quantile: the median over windows, so a
// slow phase in a minority of windows does not move it.
func TestChunked(t *testing.T) {
	var s []sample
	for i := 0; i < 3000; i++ {
		d := time.Millisecond
		if i >= 2000 {
			d = 50 * time.Millisecond // one chunk of a slow phase
		}
		s = append(s, sample{at: time.Duration(i) * time.Microsecond, d: d})
	}
	got, windows := chunked(s, 1000, 0.99)
	if windows != 5 || got != time.Millisecond {
		t.Fatalf("chunked = %v over %d windows, want 1ms over 5", got, windows)
	}
}

// TestWorldsAbove checks the muddy-children world counts the ladder
// checks answers against.
func TestWorldsAbove(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for link := 0; link < n; link++ {
			want := 0
			for w := 0; w < 1<<n; w++ {
				if bits.OnesCount(uint(w)) > link {
					want++
				}
			}
			if got := worldsAbove(n, link); got != want {
				t.Fatalf("worldsAbove(%d, %d) = %d, want %d", n, link, got, want)
			}
		}
	}
}
