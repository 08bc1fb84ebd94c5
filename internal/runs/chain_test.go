package runs

import (
	"testing"

	"repro/internal/logic"
)

// chainSystem builds a small two-processor system with a delivered and an
// undelivered variant of the same message, plus an idle run.
func chainSystem(t *testing.T) *System {
	t.Helper()
	r1 := NewRun("ok", 2, 6)
	r1.Send(0, 1, 1, 2, "m")
	r2 := NewRun("lost", 2, 6)
	r2.SendLost(0, 1, 1, "m")
	r3 := NewRun("idle", 2, 6)
	sys, err := NewSystem(r1, r2, r3)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestChainAnnounceTracksMarkedWorld checks the chain bookkeeping: marked
// worlds follow restrictions by rank, eliminated marks error, and world
// counts shrink with each truthful announcement.
func TestChainAnnounceTracksMarkedWorld(t *testing.T) {
	sys := chainSystem(t)
	interp := Interpretation{"sent": StablyTrue(SentBy("m"))}
	pm := sys.Model(CompleteHistoryView, interp)

	ch := pm.Chain(1)
	w, err := pm.WorldOf("ok", 4)
	if err != nil {
		t.Fatal(err)
	}
	ch.Mark(w)
	before := ch.NumWorlds()
	if err := ch.Announce(logic.P("sent")); err != nil {
		t.Fatal(err)
	}
	if ch.NumWorlds() >= before {
		t.Fatalf("announcement did not shrink the model (%d -> %d)", before, ch.NumWorlds())
	}
	holds, err := ch.Holds(logic.K(1, logic.P("sent")))
	if err != nil {
		t.Fatal(err)
	}
	if !holds {
		t.Errorf("after announcing sent, the receiver does not know sent at the marked point")
	}
	// Announce something false at the marked point: the mark dies and
	// Holds reports it.
	if err := ch.Announce(logic.Neg(logic.P("sent"))); err != nil {
		t.Fatal(err)
	}
	if ch.Marked() != -1 {
		t.Fatalf("mark survived an announcement that excluded it")
	}
	if _, err := ch.Holds(logic.P("sent")); err == nil {
		t.Errorf("Holds on an eliminated mark did not error")
	}
}

// TestChainRejectsTemporalFormulas pins the epistemic-view contract: the
// run-based operators do not survive restriction, so a chain must refuse
// them instead of answering from a broken structure.
func TestChainRejectsTemporalFormulas(t *testing.T) {
	sys := chainSystem(t)
	interp := Interpretation{"sent": StablyTrue(SentBy("m"))}
	ch := sys.Model(CompleteHistoryView, interp).Chain(1)
	if err := ch.Announce(logic.Ev(logic.P("sent"))); err == nil {
		t.Fatal("announcing a temporal formula on a chain did not error")
	}
}
