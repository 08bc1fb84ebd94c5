package kripke

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// randKeep returns a random non-empty subset of [0, n).
func randKeep(rng *rand.Rand, n int) *bitset.Set {
	keep := bitset.New(n)
	for w := 0; w < n; w++ {
		if rng.Intn(3) != 0 {
			keep.Add(w)
		}
	}
	if keep.IsEmpty() {
		keep.Add(rng.Intn(n))
	}
	return keep
}

// TestRestrictThenMinimizeMergesWorlds pins that a restriction does not
// only split blocks: removing the world that distinguished two others
// merges them. Worlds: a, b, c with p only at c and agent 0 confusing
// {a, c}; a and b are distinguishable (a considers p possible), but after
// announcing ¬p they are bisimilar, and both the quotient of the submodel
// and the view Quotiented.Restrict builds must collapse them.
func TestRestrictThenMinimizeMergesWorlds(t *testing.T) {
	m := NewModel(3, 1)
	m.SetTrue(2, "p")
	m.Indistinguishable(0, 0, 2)
	_, blocks := m.Minimize()
	if blocks[0] == blocks[1] {
		t.Fatalf("premise broken: worlds 0 and 1 should be distinguishable before the announcement")
	}
	notP, err := m.Eval(logic.Neg(logic.P("p")))
	if err != nil {
		t.Fatal(err)
	}
	q, b := m.Restrict(notP).Minimize()
	if q.NumWorlds() != 1 || !slices.Equal(b, []int{0, 0}) {
		t.Fatalf("Minimize missed the announcement-induced merge: %d worlds, block map %v",
			q.NumWorlds(), b)
	}
	view := m.QuotientForEval(1).Restrict(notP, 1)
	if !view.Quotiented() || view.QuotientWorlds() != 1 || !slices.Equal(view.Blocks(), []int{0, 0}) {
		t.Fatalf("restricted view: quotiented %v, %d quotient worlds, blocks %v; want one merged block",
			view.Quotiented(), view.QuotientWorlds(), view.Blocks())
	}
}
