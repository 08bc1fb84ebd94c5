package scenario

import (
	"strings"
	"testing"
)

// goldenMatrix pins the full seed-1 attainment matrix byte for byte. The CI
// smoke sweep and the determinism test below compare against the same
// string, so any drift in sampling, evaluation order or rendering fails
// loudly here first.
const goldenMatrix = "attainment matrix: seed=1 agents=4 samples=12 eps=2 T=3\n" +
	"regime         C    C^eps  C^dia  C^T   runs  points   t*  spread\n" +
	"sync-fixed     yes  yes    yes    yes      6      90    2       2\n" +
	"bounded        no   yes    yes    no      35     525    2       2\n" +
	"async          no   no     yes    no      60     900    6       6\n" +
	"drift-within   no   yes    yes    yes     48     720    2       2\n" +
	"drift-beyond   no   yes    yes    no      48     720    2       2\n" +
	"lossy          no   no     no     no      30     450    2   never\n" +
	"crash          no   no     no     no      67    1005    2       2\n" +
	"dup            no   yes    yes    no      57     855    3       3\n"

func TestSweepGoldenMatrix(t *testing.T) {
	res, err := Sweep(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Matrix(); got != goldenMatrix {
		t.Fatalf("matrix drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, goldenMatrix)
	}
}

// TestPaperSeparations asserts the qualitative claims of the paper directly
// on the verdicts, independent of rendering: each failure regime loses
// exactly the knowledge variants Halpern & Moses say it must.
func TestPaperSeparations(t *testing.T) {
	res, err := Sweep(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][4]bool{ // C, C^eps, C^dia, C^T
		"sync-fixed":   {true, true, true, true},
		"bounded":      {false, true, true, false},
		"async":        {false, false, true, false},
		"drift-within": {false, true, true, true},
		"drift-beyond": {false, true, true, false},
		"lossy":        {false, false, false, false},
		"crash":        {false, false, false, false},
		// Duplication destroys no deliveries: the at-least-once channel
		// attains exactly what its delay regime (bounded) does.
		"dup": {false, true, true, false},
	}
	if len(res.Verdicts) != len(want) {
		t.Fatalf("swept %d regimes, want %d", len(res.Verdicts), len(want))
	}
	for _, v := range res.Verdicts {
		w, ok := want[v.Regime]
		if !ok {
			t.Fatalf("unexpected regime %q", v.Regime)
		}
		if got := [4]bool{v.C, v.Ceps, v.Cev, v.Ct}; got != w {
			t.Errorf("%s: attained %v, want %v", v.Regime, got, w)
		}
	}
	// The spread column carries the paper's Section 11 story: the bounded
	// regime's onset spread fits inside ε, the async witness's exceeds it,
	// and the lossy witness has a processor that never learns.
	byKey := map[string]Verdict{}
	for _, v := range res.Verdicts {
		byKey[v.Regime] = v
	}
	p := Params{Seed: 1}.withDefaults()
	if s := byKey["bounded"].Spread; s > p.Eps {
		t.Errorf("bounded witness spread %d exceeds eps %d", s, p.Eps)
	}
	if s := byKey["async"].Spread; s <= p.Eps {
		t.Errorf("async witness spread %d does not exceed eps %d", s, p.Eps)
	}
	if s := byKey["lossy"].Spread; s != -1 {
		t.Errorf("lossy witness spread %d, want -1 (some processor never learns)", s)
	}
}

// TestSweepDeterministic is the determinism property of the engine: the
// same seed yields the byte-identical matrix across repetitions and across
// EvalBatch worker counts (run it under -race to check the fan-out too).
func TestSweepDeterministic(t *testing.T) {
	for _, workers := range []int{1, 1, 2, -1} {
		res, err := Sweep(Params{Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Matrix(); got != goldenMatrix {
			t.Fatalf("workers=%d: matrix differs from golden:\n%s", workers, got)
		}
	}
}

// TestBuildByteIdentical rebuilds every regime's sampled system twice and
// compares run names and canonical fingerprints: the fault-injection path
// from one int64 seed to a run system is reproducible byte for byte.
func TestBuildByteIdentical(t *testing.T) {
	p := Params{Seed: 3}
	for _, rg := range Regimes(p) {
		b1, err := Build(p, rg)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := Build(p, rg)
		if err != nil {
			t.Fatal(err)
		}
		if len(b1.Sys.Runs) != len(b2.Sys.Runs) {
			t.Fatalf("%s: run counts differ: %d vs %d", rg.Key, len(b1.Sys.Runs), len(b2.Sys.Runs))
		}
		for i := range b1.Sys.Runs {
			if b1.Sys.Runs[i].Name != b2.Sys.Runs[i].Name {
				t.Fatalf("%s: run %d names differ: %q vs %q", rg.Key, i, b1.Sys.Runs[i].Name, b2.Sys.Runs[i].Name)
			}
			if b1.Sys.Runs[i].Fingerprint() != b2.Sys.Runs[i].Fingerprint() {
				t.Fatalf("%s: run %d (%s) fingerprints differ", rg.Key, i, b1.Sys.Runs[i].Name)
			}
		}
		if b1.WitnessIdx != b2.WitnessIdx || b1.TStar != b2.TStar {
			t.Fatalf("%s: witness differs: (%d, %d) vs (%d, %d)",
				rg.Key, b1.WitnessIdx, b1.TStar, b2.WitnessIdx, b2.TStar)
		}
	}
}

func TestBuildWitnessIsFastestEarliestWake(t *testing.T) {
	p := Params{Seed: 1}
	rg, err := RegimeByKey(p, "async")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p, rg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.Witness.Name, "go-w0#") {
		t.Fatalf("witness %q is not a w=0 go sample", b.Witness.Name)
	}
	for _, r := range b.Sys.Runs {
		if strings.HasPrefix(r.Name, "go-w0#") && actionPoint(r) < b.TStar {
			t.Fatalf("run %s acts at %d, before the witness's %d", r.Name, actionPoint(r), b.TStar)
		}
	}
}

// TestLadderRestoresCommonKnowledge checks the delivery announcement
// ladder: every link prunes (never grows) the model, and announcing the
// full delivery count makes the broadcast fact common knowledge.
func TestLadderRestoresCommonKnowledge(t *testing.T) {
	p := Params{Seed: 1}
	for _, key := range []string{"sync-fixed", "bounded"} {
		rg, err := RegimeByKey(p, key)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(p, rg)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := b.Ladder(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(inc) == 0 {
			t.Fatalf("%s: empty ladder", key)
		}
		for i := 1; i < len(inc); i++ {
			if inc[i].Points > inc[i-1].Points {
				t.Fatalf("%s: announcement %d grew the model: %d -> %d points",
					key, inc[i].Deliveries, inc[i-1].Points, inc[i].Points)
			}
		}
		// Announcing the full delivery count makes the broadcast fact common
		// knowledge even where the channel alone could not (bounded loses C;
		// the announcement restores it).
		if last := inc[len(inc)-1]; !last.Common {
			t.Fatalf("%s: C(sent) still fails after announcing del>=%d", key, last.Deliveries)
		}
	}
}

// TestDupRegimeExercisesDuplication pins that the dup regime actually
// drives the duplicate-delivery fault end to end: some sampled run carries
// two delivered copies of one send (same sender, receiver, send time and
// payload), and the duplicated copies enlarge the sampled run space beyond
// the bounded regime's (the extra copies are observable in receiver
// histories, or the regime would be a no-op).
func TestDupRegimeExercisesDuplication(t *testing.T) {
	p := Params{Seed: 1}
	rgDup, err := RegimeByKey(p, "dup")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p, rgDup)
	if err != nil {
		t.Fatal(err)
	}
	dupSeen := false
	for _, r := range b.Sys.Runs {
		type key struct {
			from, to int
			at       int
			payload  string
		}
		seen := map[key]bool{}
		for _, m := range r.Messages {
			if !m.Delivered() {
				continue
			}
			k := key{m.From, m.To, int(m.SendTime), m.Payload}
			if seen[k] {
				dupSeen = true
			}
			seen[k] = true
		}
	}
	if !dupSeen {
		t.Fatal("no sampled dup-regime run carries a duplicated delivery")
	}

	rgBounded, err := RegimeByKey(p, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Build(p, rgBounded)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sys.Runs) <= len(bb.Sys.Runs) {
		t.Fatalf("dup regime sampled %d distinct runs, want more than bounded's %d (duplicates must be observable)",
			len(b.Sys.Runs), len(bb.Sys.Runs))
	}
}

func TestRegimeByKeyUnknown(t *testing.T) {
	if _, err := RegimeByKey(Params{}, "sync-fixed"); err != nil {
		t.Fatal(err)
	}
	if _, err := RegimeByKey(Params{}, "quantum"); err == nil {
		t.Fatal("unknown regime accepted")
	}
}
