package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// errInconsistent marks an announcement whose denotation is empty on the
// session's current model: accepting it would leave a zero-world structure,
// so the chain refuses it and the handler maps this to 422.
var errInconsistent = errors.New("announcement denotation is empty on the current model")

// session is one client's warm announcement chain over a loaded system.
// The chain state lives behind ld.view. While the view is quotiented
// (attack, r2d2 and the scenario regimes), an announcement threads its
// block map into a seeded re-refinement instead of a from-scratch
// Minimize. An unquotiented view, such as muddy's, whose worlds all differ
// in facts, is restricted directly and skips Minimize altogether: its
// valuation classes alone show no quotient could pay.
type session struct {
	id   string
	seed int64

	// mu serializes all compute on the session: eval batches read the
	// current link's model and announcements replace it, so chain links can
	// never interleave even when a client (or a duplicating network) races
	// requests against one session.
	mu sync.Mutex

	ld        *loaded
	announced []string // announcement sources in chain order
	lastUsed  time.Time
}

// touch records use for idle eviction.
func (ss *session) touch(now time.Time) { ss.lastUsed = now }

// evalBatch evaluates fs over the session's current model. At link zero of
// a runs-based system the point model serves the batch, so temporal
// formulas (C^eps, C^dia, C^T, ...) work against the unrestricted
// structure; after the first announcement the chain view has moved off the
// original model and only the epistemic fragment is meaningful — temporal
// operators then fail with kripke.ErrTemporal, which the handler reports
// as 422 rather than recomputing a stale answer.
func (ss *session) evalBatch(ctx context.Context, fs []logic.Formula, workers int) ([]*bitset.Set, error) {
	if len(ss.announced) == 0 && ss.ld.pm != nil {
		return ss.ld.pm.EvalBatchCtx(ctx, fs, kripke.BatchWorkers(workers))
	}
	return ss.ld.view.EvalBatchCtx(ctx, fs, kripke.BatchWorkers(workers))
}

// announce publicly announces f: the current view is restricted to f's
// denotation (Quotiented.Restrict), the marked world is tracked
// through by rank, and the source is appended to the chain record so the
// session can be persisted and replayed.
func (ss *session) announce(src string, f logic.Formula) error {
	keep, err := ss.ld.view.Eval(f)
	if err != nil {
		return err
	}
	if keep.IsEmpty() {
		return fmt.Errorf("%w: %s", errInconsistent, src)
	}
	if ss.ld.marked >= 0 {
		if keep.Contains(ss.ld.marked) {
			ss.ld.marked = keep.Rank(ss.ld.marked)
		} else {
			ss.ld.marked = -1
		}
	}
	ss.ld.view = ss.ld.view.Restrict(keep, 1)
	ss.announced = append(ss.announced, src)
	return nil
}

// replay rebuilds a persisted chain by announcing each recorded source in
// order against a freshly loaded system.
func (ss *session) replay(sources []string) error {
	for _, src := range sources {
		f, err := logic.Parse(src)
		if err != nil {
			return fmt.Errorf("replaying %q: %w", src, err)
		}
		if err := ss.announce(src, f); err != nil {
			return fmt.Errorf("replaying %q: %w", src, err)
		}
	}
	return nil
}
