package server

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/kripke"
	"repro/internal/muddy"
	"repro/internal/protocol"
	"repro/internal/runs"
	"repro/internal/scenario"
)

// A loaded system is one experiment instantiated for a session: the
// epistemic view the announcement chain restricts, plus — for runs-based
// systems — the point model that serves temporal formulas at link zero,
// before any announcement has moved the session off the original model.
type loaded struct {
	spec   string
	desc   string
	agents int
	// view is the chain's current epistemic structure. It starts at the
	// system's quotient-for-eval view and is replaced by Quotiented.Restrict
	// on every announcement, which restricts the original model and takes
	// a fresh quotient-for-eval view of the submodel.
	view *kripke.Quotiented
	// pm is non-nil for runs-based systems and carries the temporal
	// semantics hook; it matches view's world coordinates only at link 0.
	pm *runs.PointModel
	// marked is the distinguished real world (actual muddy assignment, best
	// attack chain run at the horizon, scenario witness point) in current
	// model coordinates; -1 once an announcement eliminates it.
	marked int
}

// Horizon/budget constants of the fixed demo systems. Small enough that a
// session opens in well under a second, rich enough that every formula
// class (K towers, C, the temporal variants) has non-trivial denotations.
const (
	attackBudget  = 4
	attackHorizon = runs.Time(10)
	r2d2Sends     = 6
	r2d2Horizon   = runs.Time(9)
	muddyMaxN     = 12
)

// SystemInfo describes one loadable system spec for GET /v1/systems.
type SystemInfo struct {
	Spec string `json:"spec"`
	Desc string `json:"desc"`
}

// Systems enumerates the specs loadSystem accepts. Scenario regimes are
// listed under the given seed (the key set is seed-independent).
func Systems(seed int64) []SystemInfo {
	out := []SystemInfo{
		{Spec: "muddy:N", Desc: fmt.Sprintf("muddy children, N children all muddy (1 <= N <= %d)", muddyMaxN)},
		{Spec: "attack", Desc: fmt.Sprintf("coordinated attack, %d-message budget, horizon %d, delivery-count announcements", attackBudget, attackHorizon)},
		{Spec: "r2d2", Desc: fmt.Sprintf("R2-D2 broadcast with spread 1, %d send times, horizon %d", r2d2Sends, r2d2Horizon)},
	}
	for _, rg := range scenario.Regimes(scenario.Params{Seed: seed}) {
		out = append(out, SystemInfo{Spec: "scenario:" + rg.Key, Desc: rg.Desc})
	}
	return out
}

// loadSystem instantiates spec. Specs are "muddy:N", "attack", "r2d2" and
// "scenario:<regime>"; seed parameterizes the scenario fault sampling and
// is ignored by the deterministic fixed systems.
func loadSystem(spec string, seed int64) (*loaded, error) {
	switch {
	case strings.HasPrefix(spec, "muddy:"):
		n, err := strconv.Atoi(spec[len("muddy:"):])
		if err != nil || n < 1 || n > muddyMaxN {
			return nil, fmt.Errorf("bad muddy spec %q: want muddy:N with 1 <= N <= %d", spec, muddyMaxN)
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		p, err := muddy.New(n, all)
		if err != nil {
			return nil, err
		}
		marked, err := p.ActualWorld()
		if err != nil {
			return nil, err
		}
		return &loaded{
			spec:   spec,
			desc:   fmt.Sprintf("muddy children, %d children all muddy", n),
			agents: n,
			view:   p.Model().QuotientForEval(1),
			marked: marked,
		}, nil

	case spec == "attack":
		s, err := attack.Build(attackBudget, attackHorizon)
		if err != nil {
			return nil, err
		}
		never := func(protocol.LocalView) bool { return false }
		pm := s.Sys.Model(runs.CompleteHistoryView, s.DeliveryInterp(never, never))
		marked, err := pm.WorldOf(s.BestChainRun(), s.Sys.Horizon)
		if err != nil {
			return nil, err
		}
		return &loaded{
			spec:   spec,
			desc:   "coordinated attack over the unreliable channel",
			agents: s.Sys.N,
			view:   pm.EpistemicQuotient(1),
			pm:     pm,
			marked: marked,
		}, nil

	case spec == "r2d2":
		sys := core.R2D2Chain(r2d2Sends, r2d2Horizon)
		pm := sys.Model(runs.CompleteHistoryView, runs.Interpretation{
			"sent": runs.StablyTrue(runs.SentBy("m")),
		})
		marked, err := pm.WorldOf("s0", sys.Horizon)
		if err != nil {
			return nil, err
		}
		return &loaded{
			spec:   spec,
			desc:   "R2-D2 broadcast, one epsilon per knowledge level",
			agents: sys.N,
			view:   pm.EpistemicQuotient(1),
			pm:     pm,
			marked: marked,
		}, nil

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
		return &loaded{
			spec:   spec,
			desc:   rg.Desc,
			agents: b.Sys.N,
			view:   b.PM.EpistemicQuotient(1),
			pm:     b.PM,
			marked: b.PM.World(b.WitnessIdx, b.TStar),
		}, nil
	}
	return nil, fmt.Errorf("unknown system spec %q", spec)
}
