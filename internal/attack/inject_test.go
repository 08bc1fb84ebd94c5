package attack

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/kripke"
	"repro/internal/protocol"
	"repro/internal/runs"
)

func TestBuildInjectedByteIdentical(t *testing.T) {
	plan := &faults.Plan{Seed: 11, Delay: faults.Fixed{D: 1}, Drop: 0.5}
	build := func() *System {
		s, err := BuildInjected(4, 10, plan, 8)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := build(), build()
	if len(s1.Sys.Runs) != len(s2.Sys.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(s1.Sys.Runs), len(s2.Sys.Runs))
	}
	for i := range s1.Sys.Runs {
		if s1.Sys.Runs[i].Name != s2.Sys.Runs[i].Name ||
			s1.Sys.Runs[i].Fingerprint() != s2.Sys.Runs[i].Fingerprint() {
			t.Fatalf("run %d differs between identically seeded builds", i)
		}
	}
}

// TestBuildInjectedFaultFreeMatchesReliable pins the engine against the
// exhaustive generator: under a degenerate plan (fixed unit delay, no
// faults) the sampled handshake collapses to exactly the runs of
// ReliableSystem, message for message.
func TestBuildInjectedFaultFreeMatchesReliable(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Delay: faults.Fixed{D: 1}}
	inj, err := BuildInjected(4, 10, plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ReliableSystem(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Sys.Runs) != len(rel.Sys.Runs) {
		t.Fatalf("injected %d runs, reliable %d", len(inj.Sys.Runs), len(rel.Sys.Runs))
	}
	want := map[string]bool{}
	for _, r := range rel.Sys.Runs {
		want[r.Fingerprint()] = true
	}
	for _, r := range inj.Sys.Runs {
		if !want[r.Fingerprint()] {
			t.Fatalf("sampled run %s has no counterpart in the reliable system", r.Name)
		}
	}
}

// TestInjectedLossKeepsCorollary6 is unattainability by injection: the
// handshake's fate space under a drop plan is finite (a prefix of delivered
// messages followed by a loss), so enough samples reconstruct exactly the
// runs of the exhaustive unreliable channel — and over that injected
// system, every threshold rule pair satisfying the problem constraints
// still never attacks. (An under-sampled system can miss the separating
// run and let a bad rule pair through; the fingerprint equality below is
// what licenses the Corollary 6 claim on samples.)
func TestInjectedLossKeepsCorollary6(t *testing.T) {
	ex, err := Build(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	exFp := map[string]bool{}
	for _, r := range ex.Sys.Runs {
		exFp[r.Fingerprint()] = true
	}
	plan := &faults.Plan{Seed: 5, Delay: faults.Fixed{D: 1}, Drop: 0.5}
	s, err := BuildInjected(3, 8, plan, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sys.Runs) != len(ex.Sys.Runs) {
		t.Fatalf("injected %d distinct runs, exhaustive %d", len(s.Sys.Runs), len(ex.Sys.Runs))
	}
	for _, r := range s.Sys.Runs {
		if !exFp[r.Fingerprint()] {
			t.Fatalf("sampled run %s has no counterpart in the exhaustive system", r.Name)
		}
	}
	rep, err := s.CheckCorollary6()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorrectRules == 0 {
		t.Fatal("no rule pair satisfied the constraints; the search is vacuous")
	}
	if rep.AttackingAmongCorrect != 0 {
		t.Fatalf("%d correct rule pairs attack under injected loss", rep.AttackingAmongCorrect)
	}
}

// TestInjectedChainReplayParallelMatchesSerial replays the delivery
// announcement chain of an injected system with and without a batch worker
// pool: the steps must be identical (the chain's verdicts are
// batch-deterministic).
func TestInjectedChainReplayParallelMatchesSerial(t *testing.T) {
	plan := &faults.Plan{Seed: 3, Delay: faults.Fixed{D: 1}, Drop: 0.3}
	s, err := BuildInjected(4, 10, plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	never := func(protocol.LocalView) bool { return false }
	pm := s.Sys.Model(runs.CompleteHistoryView, s.DeliveryInterp(never, never))
	best := s.BestChainRun()
	serial, err := s.ReplayDeliveryChain(pm, best)
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.ReplayDeliveryChain(pm, best, kripke.BatchWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel chain %+v differs from serial %+v", par, serial)
	}
	if len(serial) == 0 {
		t.Fatal("best run replayed an empty chain")
	}
}
