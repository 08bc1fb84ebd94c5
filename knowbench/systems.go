package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/muddy"
	"repro/internal/protocol"
	"repro/internal/runs"
	"repro/internal/scenario"
)

// refSystem is a session's system built outside the server, the way
// knowd's loadSystem builds it: the epistemic view an announcement chain
// restricts, the point model that serves temporal formulas at link zero
// for runs-based systems, and the marked world. The benchmark uses it for
// reference verdicts and for the kernel replay of the traced run.
type refSystem struct {
	spec   string
	view   *kripke.Quotiented
	pm     *runs.PointModel
	marked int
	link   int

	// Build phase boundaries: the system constructor (muddy.New,
	// scenario.Build and friends) runs from t0 to t1, the quotient over
	// its model from t1 to t2.
	t0, t1, t2 time.Time
}

// The fixed demo systems' constants, equal to knowd's.
const (
	attackBudget  = 4
	attackHorizon = runs.Time(10)
	r2d2Sends     = 6
	r2d2Horizon   = runs.Time(9)
)

// buildRef mirrors server.loadSystem for spec and seed.
func buildRef(spec string, seed int64) (*refSystem, error) {
	rs := &refSystem{spec: spec, t0: time.Now()}
	var pm *runs.PointModel
	switch {
	case strings.HasPrefix(spec, "muddy:"):
		n, err := strconv.Atoi(spec[len("muddy:"):])
		if err != nil {
			return nil, fmt.Errorf("bad muddy spec %q", spec)
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		p, err := muddy.New(n, all)
		if err != nil {
			return nil, err
		}
		if rs.marked, err = p.ActualWorld(); err != nil {
			return nil, err
		}
		rs.t1 = time.Now()
		rs.view = p.Model().QuotientForEval(1)
		rs.t2 = time.Now()
		return rs, nil
	case spec == "attack":
		s, err := attack.Build(attackBudget, attackHorizon)
		if err != nil {
			return nil, err
		}
		never := func(protocol.LocalView) bool { return false }
		pm = s.Sys.Model(runs.CompleteHistoryView, s.DeliveryInterp(never, never))
		if rs.marked, err = pm.WorldOf(s.BestChainRun(), s.Sys.Horizon); err != nil {
			return nil, err
		}
	case spec == "r2d2":
		sys := core.R2D2Chain(r2d2Sends, r2d2Horizon)
		pm = sys.Model(runs.CompleteHistoryView, runs.Interpretation{
			"sent": runs.StablyTrue(runs.SentBy("m")),
		})
		var err error
		if rs.marked, err = pm.WorldOf("s0", sys.Horizon); err != nil {
			return nil, err
		}
	case strings.HasPrefix(spec, "scenario:"):
		p := scenario.Params{Seed: seed}
		rg, err := scenario.RegimeByKey(p, spec[len("scenario:"):])
		if err != nil {
			return nil, err
		}
		b, err := scenario.Build(p, rg)
		if err != nil {
			return nil, err
		}
		pm = b.PM
		rs.marked = b.PM.World(b.WitnessIdx, b.TStar)
	default:
		return nil, fmt.Errorf("unknown system spec %q", spec)
	}
	rs.t1 = time.Now()
	rs.view = pm.EpistemicQuotient(1)
	rs.t2 = time.Now()
	rs.pm = pm
	return rs, nil
}

// evalBatch evaluates fs the way a knowd session does: on the point model
// at link zero of a runs-based system, on the chain view otherwise.
func (rs *refSystem) evalBatch(fs []logic.Formula) ([]*bitset.Set, error) {
	if rs.link == 0 && rs.pm != nil {
		return rs.pm.EvalBatchCtx(context.Background(), fs, kripke.BatchWorkers(0))
	}
	return rs.view.EvalBatchCtx(context.Background(), fs, kripke.BatchWorkers(0))
}

// verdict is the comparable part of a served verdict.
type verdict struct {
	count  int
	marked int // -1 no marked world, 0 false, 1 true
}

func verdictOf(set *bitset.Set, marked int) verdict {
	v := verdict{count: set.Count(), marked: -1}
	if marked >= 0 {
		v.marked = 0
		if set.Contains(marked) {
			v.marked = 1
		}
	}
	return v
}

// refVerdicts evaluates srcs directly on the kernel.
func (rs *refSystem) refVerdicts(srcs []string) ([]verdict, error) {
	fs := make([]logic.Formula, len(srcs))
	for i, src := range srcs {
		f, err := logic.Parse(src)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	sets, err := rs.evalBatch(fs)
	if err != nil {
		return nil, err
	}
	out := make([]verdict, len(sets))
	for i, s := range sets {
		out[i] = verdictOf(s, rs.marked)
	}
	return out, nil
}
