package kripke

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// Quotient-before-eval: "Common knowledge revisited" observes that whether
// common knowledge is attained depends on the granularity of the model —
// and so does the cost of checking it. Point models built from run systems
// are full of epistemically identical worlds (silent run tails, permuted
// histories); evaluating a batch of formulas is then cheaper on the
// bisimulation quotient, which satisfies exactly the same formulas at the
// image worlds. Quotiented packages that heuristic: minimize once, evaluate
// every formula of the batch on the quotient, and map each verdict back
// through the block map of Minimize.

// QuotientMinWorlds is the default size threshold of QuotientForEval: below
// it the one-off Minimize pass costs more than it could save, so the
// original model is evaluated directly.
const QuotientMinWorlds = 256

// quotientKeepRatio is the shrinkage a quotient must achieve to be worth
// indirecting through: quotients above this fraction of the original size
// (e.g. the muddy-children models, whose worlds all differ in facts) are
// discarded and the original model evaluated directly.
const quotientKeepRatio = 0.75

// Quotiented evaluates formulas on the bisimulation quotient of a model
// while reporting verdicts in terms of the original worlds. Build one with
// QuotientForEval; it is safe for concurrent use once built, like the
// models it wraps.
type Quotiented struct {
	orig  *Model
	quot  *Model // model formulas evaluate on; == orig when quotienting was skipped
	block []int  // Minimize block map; nil when quotienting was skipped
}

// QuotientForEval returns a batch-evaluation view of the model that
// evaluates on the bisimulation quotient when that is worthwhile:
// the model must have at least minWorlds worlds (<= 0 means the
// QuotientMinWorlds default), no temporal structure (run-based operators do
// not survive minimization), and the quotient must actually shrink the
// model (see quotientKeepRatio). Otherwise the view transparently evaluates
// the original model — callers never need to distinguish the two cases.
// A model with more valuation classes than the keep ratio allows (such as
// the muddy-children models, whose worlds all differ in facts) skips
// Minimize altogether: its quotient could never be small enough.
func (m *Model) QuotientForEval(minWorlds int) *Quotiented {
	if minWorlds <= 0 {
		minWorlds = QuotientMinWorlds
	}
	if m.Temporal != nil || m.numWorlds < minWorlds {
		return &Quotiented{orig: m, quot: m}
	}
	// Refinement only ever splits, so the valuation classes bound the
	// quotient's size from below: past the keep ratio, Minimize cannot pay
	// and is skipped.
	r := m.factRefiner()
	if float64(r.n) > quotientKeepRatio*float64(m.numWorlds) {
		return &Quotiented{orig: m, quot: m}
	}
	r.refine()
	q, block := r.quotient()
	if float64(q.NumWorlds()) > quotientKeepRatio*float64(m.numWorlds) {
		return &Quotiented{orig: m, quot: m}
	}
	return &Quotiented{orig: m, quot: q, block: block}
}

// QuotientForEvalEpistemic is QuotientForEval for models carrying a
// temporal hook whose formula batch is nonetheless known to be free of the
// run-based operators: the hook is detached (temporal operators error out
// on the view, matching the quotient, instead of silently depending on
// whether the quotient gates fired) and the purely epistemic structure is
// quotiented as usual. The view shares the model's construction data; like
// concurrent Eval, it requires the model to be fully constructed.
func (m *Model) QuotientForEvalEpistemic(minWorlds int) *Quotiented {
	return m.epistemicView().QuotientForEval(minWorlds)
}

// epistemicView returns the model stripped of its temporal hook: a shallow
// model sharing the (immutable once constructed) valuation columns, names,
// relation ids and restriction-inherited joint views, with its own
// derived-table caches.
func (m *Model) epistemicView() *Model {
	if m.Temporal == nil {
		return m
	}
	v := NewModel(m.numWorlds, m.numAgents)
	v.names = m.names
	v.valuation = m.valuation
	v.inheritedJoint = m.inheritedJoint
	for a := 0; a < m.numAgents; a++ {
		ids, n := m.relIDs(a)
		if ids != nil {
			v.rels[a] = agentRel{ids: ids, n: n}
		}
	}
	return v
}

// Quotiented reports whether evaluation actually runs on a quotient (false
// when the size or shrinkage gates kept the original model).
func (q *Quotiented) Quotiented() bool { return q.block != nil }

// Model returns the original model the view wraps.
func (q *Quotiented) Model() *Model { return q.orig }

// Blocks returns the Minimize block map evaluation is routed through, or
// nil when the gates kept the original model. The slice is shared with the
// view; callers must not modify it.
func (q *Quotiented) Blocks() []int { return q.block }

// Restrict applies a public announcement to the view: the original model is
// restricted to keep (a set of original-model worlds) and a fresh view is
// built over the submodel with the same gates as QuotientForEval. This is
// the per-round step of an announcement chain. The old block map is not
// carried over: a restriction can merge worlds as well as split blocks, and
// on the chains knowd serves, re-minimizing the submodel from its valuation
// classes costs less than re-refining from the old blocks and composing the
// merges back in.
func (q *Quotiented) Restrict(keep *bitset.Set, minWorlds int) *Quotiented {
	return q.orig.Restrict(keep).QuotientForEval(minWorlds)
}

// NumWorlds returns the world count of the original model.
func (q *Quotiented) NumWorlds() int { return q.orig.numWorlds }

// QuotientWorlds returns the world count of the model evaluation runs on.
func (q *Quotiented) QuotientWorlds() int { return q.quot.numWorlds }

// Eval returns the set of original-model worlds at which f holds: the
// formula is evaluated on the quotient and the verdict expanded back
// through the block map. The returned set is owned by the caller.
func (q *Quotiented) Eval(f logic.Formula) (*bitset.Set, error) {
	qset, err := q.quot.Eval(f)
	if err != nil {
		return nil, err
	}
	if q.block == nil {
		return qset, nil
	}
	return q.expand(qset), nil
}

// expand maps a quotient-world denotation back to original-model worlds
// through the block map.
func (q *Quotiented) expand(qset *bitset.Set) *bitset.Set {
	out := bitset.New(q.orig.numWorlds)
	for w, b := range q.block {
		if qset.Contains(b) {
			out.Add(w)
		}
	}
	return out
}

// EvalBatch evaluates a batch of formulas on the quotient with the
// parallel fan-out of Model.EvalBatch and expands every verdict back
// through the block map. Results are identical, set for set, to calling
// Eval on each formula in order.
func (q *Quotiented) EvalBatch(fs []logic.Formula, opts ...BatchOption) ([]*bitset.Set, error) {
	return q.EvalBatchCtx(context.Background(), fs, opts...)
}

// EvalBatchCtx is EvalBatch with the deadline/cancellation propagation of
// Model.EvalBatchCtx: a cancelled context stops the underlying fan-out
// after at most one in-flight formula per worker, and the block-map
// expansion is skipped entirely.
func (q *Quotiented) EvalBatchCtx(ctx context.Context, fs []logic.Formula, opts ...BatchOption) ([]*bitset.Set, error) {
	qsets, err := q.quot.EvalBatchCtx(ctx, fs, opts...)
	if err != nil {
		return nil, err
	}
	if q.block == nil {
		return qsets, nil
	}
	out := make([]*bitset.Set, len(qsets))
	for i, qs := range qsets {
		out[i] = q.expand(qs)
	}
	return out, nil
}

// Holds reports whether f holds at original-model world w.
func (q *Quotiented) Holds(f logic.Formula, w int) (bool, error) {
	qset, err := q.quot.Eval(f)
	if err != nil {
		return false, err
	}
	if q.block == nil {
		return qset.Contains(w), nil
	}
	return qset.Contains(q.block[w]), nil
}

// Valid reports whether f holds at every world. Bisimilar worlds satisfy
// the same formulas, so validity on the quotient and on the original model
// coincide.
func (q *Quotiented) Valid(f logic.Formula) (bool, error) {
	qset, err := q.quot.Eval(f)
	if err != nil {
		return false, err
	}
	return qset.IsFull(), nil
}
