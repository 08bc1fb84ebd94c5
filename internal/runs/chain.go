package runs

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// Chain replays a sequence of public announcements on the epistemic
// structure of a point model. Each Announce evaluates its formula on the
// current view, restricts the model to the worlds where it holds, and
// takes a fresh quotient-for-eval view of the submodel
// (kripke.Quotiented.Restrict).
//
// The chain works on the point model's epistemic view: announcement
// formulas (and queries) must be free of the run-based temporal operators,
// which do not survive restriction.
type Chain struct {
	view      *kripke.Quotiented
	minWorlds int
	marked    int // tracked world in the current model, -1 when unset/eliminated
}

// Chain starts an announcement chain on the point model's epistemic view.
// minWorlds is the QuotientForEval threshold applied at every link (<= 0
// means the kripke default).
func (pm *PointModel) Chain(minWorlds int) *Chain {
	return &Chain{
		view:      pm.EpistemicQuotient(minWorlds),
		minWorlds: minWorlds,
		marked:    -1,
	}
}

// Mark tracks a world (an actual point) through subsequent announcements;
// its index is updated by rank at every restriction. Holds evaluates at
// the marked world.
func (c *Chain) Mark(w int) { c.marked = w }

// Marked returns the tracked world's index in the current model, or -1 if
// no world is marked or an announcement eliminated it.
func (c *Chain) Marked() int { return c.marked }

// NumWorlds returns the world count of the current (restricted) model.
func (c *Chain) NumWorlds() int { return c.view.NumWorlds() }

// QuotientWorlds returns the world count of the model formulas currently
// evaluate on (equal to NumWorlds when the quotient gates kept the model).
func (c *Chain) QuotientWorlds() int { return c.view.QuotientWorlds() }

// Eval returns the denotation of f over the current model's worlds.
func (c *Chain) Eval(f logic.Formula) (*bitset.Set, error) {
	return c.view.Eval(f)
}

// EvalBatch evaluates a batch of formulas on the current link's model with
// the parallel fan-out of kripke.EvalBatch (verdicts mapped back through
// the quotient when one is active). A link's verdict batch — the
// alternating-knowledge tower plus the common-knowledge check of the
// delivery replay — is a set of independent queries against one shared
// link model, the batch shape the fan-out accelerates.
func (c *Chain) EvalBatch(fs []logic.Formula, opts ...kripke.BatchOption) ([]*bitset.Set, error) {
	return c.view.EvalBatch(fs, opts...)
}

// Holds reports whether f holds at the marked world of the current model.
func (c *Chain) Holds(f logic.Formula) (bool, error) {
	if c.marked < 0 {
		return false, fmt.Errorf("runs: no marked world (unset, or eliminated by an announcement)")
	}
	return c.view.Holds(f, c.marked)
}

// Announce publicly announces f: the model is restricted to the worlds
// where f holds, and the marked world is tracked through by rank.
func (c *Chain) Announce(f logic.Formula) error {
	keep, err := c.view.Eval(f)
	if err != nil {
		return err
	}
	if c.marked >= 0 {
		if keep.Contains(c.marked) {
			c.marked = keep.Rank(c.marked)
		} else {
			c.marked = -1
		}
	}
	c.view = c.view.Restrict(keep, c.minWorlds)
	return nil
}
