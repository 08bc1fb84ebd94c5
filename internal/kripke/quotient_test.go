package kripke

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/logic"
)

var quotientBatch = []logic.Formula{
	logic.P("p"),
	logic.Neg(logic.P("q")),
	logic.K(0, logic.P("p")),
	logic.E(nil, logic.Disj(logic.P("p"), logic.P("q"))),
	logic.D(nil, logic.P("q")),
	logic.C(nil, logic.P("p")),
	logic.EK(nil, 4, logic.P("p")),
	logic.MustParse("nu X . E (p & X)"),
	logic.Disj(
		logic.K(0, logic.Neg(logic.K(1, logic.P("p")))),
		logic.C(nil, logic.Imp(logic.P("p"), logic.P("q")))),
}

// TestQuickQuotientForEvalAgrees: Eval/Holds/Valid through the quotient
// view must return exactly the direct verdicts, whether or not the gates
// let the quotient fire.
func TestQuickQuotientForEvalAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng, 2+rng.Intn(40), 2+rng.Intn(2))
		q := m.QuotientForEval(1) // force the quotient attempt at any size
		for _, phi := range quotientBatch {
			direct, err := m.Eval(phi)
			if err != nil {
				t.Fatal(err)
			}
			via, err := q.Eval(phi)
			if err != nil {
				t.Fatal(err)
			}
			if !direct.Equal(via) {
				t.Errorf("seed %d: %s: quotient verdict %s != direct %s", seed, phi, via, direct)
				return false
			}
			holds, err := q.Holds(phi, 0)
			if err != nil {
				t.Fatal(err)
			}
			if holds != direct.Contains(0) {
				t.Errorf("seed %d: %s: Holds(0) = %v, want %v", seed, phi, holds, direct.Contains(0))
				return false
			}
			valid, err := q.Valid(phi)
			if err != nil {
				t.Fatal(err)
			}
			if valid != direct.IsFull() {
				t.Errorf("seed %d: %s: Valid = %v, want %v", seed, phi, valid, direct.IsFull())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuotientForEvalGates: the size, shrinkage and temporal gates must
// fall back to the original model.
func TestQuotientForEvalGates(t *testing.T) {
	// Size gate: a collapsible model below the threshold stays unquotiented.
	m := NewModel(4, 1)
	m.SetTrue(0, "p")
	m.SetTrue(2, "p")
	m.Indistinguishable(0, 0, 1)
	m.Indistinguishable(0, 2, 3)
	if q := m.QuotientForEval(0); q.Quotiented() {
		t.Error("size gate did not hold below QuotientMinWorlds")
	}
	if q := m.QuotientForEval(1); !q.Quotiented() {
		t.Error("explicit minWorlds=1 did not force the quotient")
	} else if q.QuotientWorlds() != 2 {
		t.Errorf("quotient has %d worlds, want 2", q.QuotientWorlds())
	}

	// Shrinkage gate: the chain model is its own quotient.
	if q := chainModel(16).QuotientForEval(1); q.Quotiented() {
		t.Error("shrinkage gate kept an unshrunk quotient")
	}

	// Temporal gate.
	mt := NewModel(4, 1)
	mt.Indistinguishable(0, 0, 1)
	mt.Indistinguishable(0, 2, 3)
	mt.Temporal = stubTemporal{}
	if q := mt.QuotientForEval(1); q.Quotiented() {
		t.Error("temporal gate did not hold")
	}
}

type stubTemporal struct{}

func (stubTemporal) EvalTemporal(m *Model, f logic.Formula, rec func(logic.Formula) (*bitset.Set, error)) (*bitset.Set, error) {
	return bitset.New(m.NumWorlds()), nil
}

// TestQuotientForEvalEpistemic: detaching the temporal hook lets the
// epistemic structure quotient, temporal formulas error out on the view,
// and epistemic verdicts agree with the hooked original.
func TestQuotientForEvalEpistemic(t *testing.T) {
	m := NewModel(4, 1)
	m.SetTrue(0, "p")
	m.SetTrue(2, "p")
	m.Indistinguishable(0, 0, 1)
	m.Indistinguishable(0, 2, 3)
	m.Temporal = stubTemporal{}
	q := m.QuotientForEvalEpistemic(1)
	if !q.Quotiented() {
		t.Fatal("epistemic quotient did not fire on a temporal model")
	}
	phi := logic.K(0, logic.P("p"))
	direct, err := m.Eval(phi)
	if err != nil {
		t.Fatal(err)
	}
	via, err := q.Eval(phi)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(via) {
		t.Errorf("epistemic quotient verdict %s != direct %s", via, direct)
	}
	if _, err := q.Eval(logic.Eev(nil, logic.P("p"))); err == nil {
		t.Error("temporal operator did not error on the epistemic view")
	}
}

// factClassModel returns a random model over n worlds with exactly
// classes valuation classes (1 <= classes <= n): each world's class id is
// spelled out in binary over fact columns f0, f1, ..., and every class is
// used. Agent relations are random edges, dense enough that bisimilar
// worlds are common.
func factClassModel(rng *rand.Rand, n, classes, numAgents int) *Model {
	class := make([]int, n)
	for w := range class {
		if w < classes {
			class[w] = w
		} else {
			class[w] = rng.Intn(classes)
		}
	}
	rng.Shuffle(n, func(i, j int) { class[i], class[j] = class[j], class[i] })
	m := NewModel(n, numAgents)
	for w, c := range class {
		for bit := 0; c>>bit > 0; bit++ {
			if c>>bit&1 == 1 {
				m.SetTrue(w, fmt.Sprintf("f%d", bit))
			}
		}
	}
	for a := 0; a < numAgents; a++ {
		for e := rng.Intn(2 * n); e > 0; e-- {
			m.Indistinguishable(a, rng.Intn(n), rng.Intn(n))
		}
	}
	return m
}

// TestQuickQuotientForEvalFactBoundExact pins the fact-class bound as
// exact: the gated QuotientForEval, which skips Minimize when the
// valuation classes alone exceed the keep ratio, must report the same
// Quotiented, QuotientWorlds and Blocks as running Minimize and then the
// ratio check — on random models, on models whose class count sits exactly
// at and just past the keep ratio, and on random restrictions of them.
func TestQuickQuotientForEvalFactBoundExact(t *testing.T) {
	reference := func(m *Model) (bool, int, []int) {
		q, block := m.Minimize()
		if float64(q.NumWorlds()) > quotientKeepRatio*float64(m.NumWorlds()) {
			return false, m.NumWorlds(), nil
		}
		return true, q.NumWorlds(), block
	}
	var skipped, kept, dropped int
	check := func(label string, m *Model) bool {
		t.Helper()
		wantQ, wantW, wantB := reference(m)
		v := m.QuotientForEval(1)
		if v.Quotiented() != wantQ || v.QuotientWorlds() != wantW || !slices.Equal(v.Blocks(), wantB) {
			t.Errorf("%s: gated view (quotiented %v, %d worlds, blocks %v), want (%v, %d, %v)",
				label, v.Quotiented(), v.QuotientWorlds(), v.Blocks(), wantQ, wantW, wantB)
			return false
		}
		facts := m.factRefiner().n
		switch {
		case float64(facts) > quotientKeepRatio*float64(m.NumWorlds()):
			skipped++
		case wantQ:
			kept++
		default:
			dropped++
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 * (1 + rng.Intn(12))
		atRatio := 3 * n / 4
		numAgents := 1 + rng.Intn(3)
		for _, classes := range []int{atRatio, atRatio + 1, 1 + rng.Intn(n)} {
			m := factClassModel(rng, n, classes, numAgents)
			label := fmt.Sprintf("seed %d: %d worlds, %d fact classes", seed, n, classes)
			if !check(label, m) {
				return false
			}
			if !check(label+", restriction", m.Restrict(randKeep(rng, n))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if skipped == 0 || kept == 0 || dropped == 0 {
		t.Errorf("paths not all exercised: %d skipped by the bound, %d kept, %d dropped after Minimize", skipped, kept, dropped)
	}
}
