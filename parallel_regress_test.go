package repro_test

// Regression: the parallel batch-evaluation engine must return verdicts
// byte-identical to serial Eval on the systems of the existing experiments
// — the R2-D2 delivery chain, the commit window, the coordinated attack,
// the muddy children — with the worker pool forced wide and the lazy
// tables cold, and the muddy simulation must be invariant under the
// per-round fan-out.

import (
	"testing"

	"repro"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/muddy"
	"repro/internal/protocol"
	"repro/internal/runs"
)

// checkBatchMatchesSerial evaluates the batch serially on one model and
// with a forced-wide EvalBatch on a freshly built twin (cold caches), and
// requires byte-identical denotations.
func checkBatchMatchesSerial(t *testing.T, name string, serial, cold *repro.Model, batch []logic.Formula) {
	t.Helper()
	want := make([]string, len(batch))
	for i, f := range batch {
		s, err := serial.Eval(f)
		if err != nil {
			t.Fatalf("%s: serial eval of %s: %v", name, f, err)
		}
		want[i] = s.String()
	}
	got, err := cold.EvalBatch(batch, kripke.BatchWorkers(8))
	if err != nil {
		t.Fatalf("%s: EvalBatch: %v", name, err)
	}
	for i := range batch {
		if got[i].String() != want[i] {
			t.Errorf("%s: EvalBatch changed the verdict of %s", name, batch[i])
		}
	}
}

func TestEvalBatchMatchesExperiments(t *testing.T) {
	// E7/ablation system: the R2-D2 message chain of Section 8.
	buildR2D2 := func() *repro.Model {
		sys := core.R2D2Chain(6, 9)
		return sys.Model(repro.CompleteHistoryView, repro.Interpretation{
			"sent": repro.StablyTrue(repro.SentBy("m")),
		}).Model
	}
	checkBatchMatchesSerial(t, "r2d2", buildR2D2(), buildR2D2(), epistemicBatch("sent"))

	// E12/commit-window system of Section 13.
	buildCommit := func() *repro.Model {
		csys, interp, err := repro.CommitSystem(6)
		if err != nil {
			t.Fatal(err)
		}
		return csys.Model(repro.CompleteHistoryView, interp).Model
	}
	cm := buildCommit()
	var cprop string
	for _, f := range cm.Facts() {
		cprop = f
		break
	}
	checkBatchMatchesSerial(t, "commit", cm, buildCommit(), epistemicBatch(cprop))

	// E4/E13 coordinated-attack system.
	buildAttack := func() *repro.Model {
		as, err := attack.Build(4, 10)
		if err != nil {
			t.Fatal(err)
		}
		never := func(protocol.LocalView) bool { return false }
		return as.Sys.Model(runs.CompleteHistoryView, as.Interp(never, never)).Model
	}
	checkBatchMatchesSerial(t, "attack", buildAttack(), buildAttack(), epistemicBatch(attack.IntentProp))

	// E1 muddy children (a plain Kripke model), with the per-child round
	// formulas as the batch — the exact workload muddy.Round fans out.
	buildMuddy := func() *repro.Model {
		pz, err := muddy.New(8, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		return pz.Model()
	}
	var roundBatch []logic.Formula
	for i := 0; i < 8; i++ {
		mi := logic.P(muddy.MuddyProp(i))
		roundBatch = append(roundBatch,
			logic.Disj(logic.K(logic.Agent(i), mi), logic.K(logic.Agent(i), logic.Neg(mi))))
	}
	roundBatch = append(roundBatch, epistemicBatch(muddy.MuddyProp(0))...)
	checkBatchMatchesSerial(t, "muddy", buildMuddy(), buildMuddy(), roundBatch)
}

// TestSimulateParallelMatchesSerial pins the muddy simulation against the
// fan-out: forced-wide per-round batches must reproduce the serial rounds
// answer for answer, including the tracked common-knowledge verdicts.
func TestSimulateParallelMatchesSerial(t *testing.T) {
	for _, k := range []int{1, 3} {
		muddySet := make([]int, k)
		for i := range muddySet {
			muddySet[i] = i
		}
		serial, err := muddy.SimulateOpts(9, muddySet, muddy.PublicAnnouncement, 6,
			muddy.SimOptions{TrackCommon: true, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		wide, err := muddy.SimulateOpts(9, muddySet, muddy.PublicAnnouncement, 6,
			muddy.SimOptions{TrackCommon: true, Parallel: 8})
		if err != nil {
			t.Fatal(err)
		}
		if serial.FirstYesRound != wide.FirstYesRound || serial.YesAreMuddy != wide.YesAreMuddy {
			t.Fatalf("k=%d: parallel simulation diverged: serial round %d, parallel round %d",
				k, serial.FirstYesRound, wide.FirstYesRound)
		}
		if len(serial.Rounds) != len(wide.Rounds) {
			t.Fatalf("k=%d: round counts diverged: %d vs %d", k, len(serial.Rounds), len(wide.Rounds))
		}
		for r := range serial.Rounds {
			for i := range serial.Rounds[r].Yes {
				if serial.Rounds[r].Yes[i] != wide.Rounds[r].Yes[i] {
					t.Fatalf("k=%d round %d: child %d answered differently under the fan-out", k, r+1, i)
				}
			}
			if serial.CommonM[r] != wide.CommonM[r] {
				t.Fatalf("k=%d round %d: C m verdict differs under the fan-out", k, r+1)
			}
		}
	}
}
