// Benchmarks regenerating every experiment of the reproduction (one per
// table/series in DESIGN.md), plus ablation benchmarks for the design
// choices the library makes. Run with:
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/attack"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/muddy"
	"repro/internal/protocol"
	"repro/internal/runs"
	"repro/internal/scenario"
)

// benchExperiment runs one experiment driver repeatedly, failing the bench
// if the reproduction deviates from the paper.
func benchExperiment(b *testing.B, run func() (*core.Report, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Pass {
			b.Fatalf("experiment failed:\n%s", rep)
		}
	}
}

func BenchmarkE1MuddyChildren(b *testing.B) {
	benchExperiment(b, func() (*core.Report, error) { return core.E1MuddyChildren(6) })
}

func BenchmarkE2KnowledgeDepth(b *testing.B) {
	benchExperiment(b, func() (*core.Report, error) { return core.E2KnowledgeDepth(5) })
}

func BenchmarkE3Hierarchy(b *testing.B) {
	benchExperiment(b, core.E3Hierarchy)
}

func BenchmarkE4CoordinatedAttack(b *testing.B) {
	benchExperiment(b, core.E4CoordinatedAttack)
}

func BenchmarkE5Theorem5(b *testing.B) {
	benchExperiment(b, core.E5Theorem5)
}

func BenchmarkE6Theorem7(b *testing.B) {
	benchExperiment(b, core.E6Theorem7)
}

func BenchmarkE7R2D2(b *testing.B) {
	benchExperiment(b, core.E7R2D2)
}

func BenchmarkE8Imprecision(b *testing.B) {
	benchExperiment(b, core.E8Imprecision)
}

func BenchmarkE9EpsilonEventual(b *testing.B) {
	benchExperiment(b, core.E9EpsilonEventual)
}

func BenchmarkE10Timestamped(b *testing.B) {
	benchExperiment(b, core.E10Timestamped)
}

func BenchmarkE11S5(b *testing.B) {
	benchExperiment(b, core.E11S5)
}

func BenchmarkE12InternalConsistency(b *testing.B) {
	benchExperiment(b, core.E12InternalConsistency)
}

func BenchmarkE13Fixpoint(b *testing.B) {
	benchExperiment(b, core.E13Fixpoint)
}

func BenchmarkE14Agreement(b *testing.B) {
	benchExperiment(b, core.E14Agreement)
}

func BenchmarkE15MessageChains(b *testing.B) {
	benchExperiment(b, core.E15MessageChains)
}

func BenchmarkE16FactDiscovery(b *testing.B) {
	benchExperiment(b, core.E16FactDiscovery)
}

func BenchmarkE17KnowledgeBasedProgram(b *testing.B) {
	benchExperiment(b, core.E17KnowledgeBasedProgram)
}

// Ablation: evaluation on a point model before and after bisimulation
// minimization (silent run tails collapse).
func BenchmarkAblationMinimizedEvaluation(b *testing.B) {
	sys := core.R2D2Chain(6, 9)
	pm := sys.Model(repro.CompleteHistoryView, repro.Interpretation{
		"sent": repro.StablyTrue(repro.SentBy("m")),
	})
	f := repro.MustParse("C sent")
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pm.Eval(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	mini, _ := pm.Model.Minimize()
	b.Run("minimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mini.Eval(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations -----------------------------------------------------------

// chainModel is the strict-hierarchy model used by the ablations.
func chainModel(n int) *kripke.Model {
	m := kripke.NewModel(n, 2)
	for w := 0; w < n-1; w++ {
		m.SetTrue(w, "p")
	}
	for w := 0; w+1 < n; w++ {
		m.Indistinguishable(w%2, w, w+1)
	}
	return m
}

// Ablation: common knowledge via reachability components (the default)
// versus greatest-fixed-point iteration. On a chain of n worlds the gfp
// needs ~n iterations, so components win asymptotically.
func BenchmarkAblationCommonByComponents(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := chainModel(n)
			f := logic.C(nil, logic.P("p"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Eval(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationCommonByIteration(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := chainModel(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.CommonKnowledgeByIteration(nil, logic.P("p")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: muddy children model size — the 2^n-world model construction
// and a full simulation, as n grows.
func BenchmarkAblationMuddyScaling(b *testing.B) {
	for _, n := range []int{6, 9, 12, 15} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			muddySet := []int{0, 1, 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := muddy.Simulate(n, muddySet, muddy.PublicAnnouncement, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// redundantChain builds a model whose bisimulation quotient is a chain of
// `blocks` worlds (fact p marks one end; two agents alternate in pairing
// adjacent blocks into classes), with every block blown up to `copies`
// bisimilar copies. It is the worst case for minimization: the refinement
// has to walk the whole chain, one block per round, over all
// blocks*copies worlds.
func redundantChain(blocks, copies int) *kripke.Model {
	w := blocks * copies
	b := kripke.NewBuilder(w, 2)
	col := b.Column("p")
	for i := 0; i < copies; i++ {
		col.Add(i)
	}
	ids0 := make([]int32, w)
	ids1 := make([]int32, w)
	for i := 0; i < w; i++ {
		blk := i / copies
		ids0[i] = int32(blk / 2)
		ids1[i] = int32((blk + 1) / 2)
	}
	b.SetPartition(0, ids0, (blocks+1)/2)
	b.SetPartition(1, ids1, blocks/2+1)
	return b.Build()
}

// Ablation: a chained sequence of announcements, re-minimizing after every
// restriction. No served system produces this chain; it is the synthetic
// worst case for re-minimizing from the valuation classes at every link.
func BenchmarkAblationChainedRestrict(b *testing.B) {
	const blocks, copies, steps = 48, 96, 32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := redundantChain(blocks, copies)
		q, _ := m.Minimize()
		for s := 0; s < steps; s++ {
			// Announce away the far end of the chain.
			keep := bitset.NewFull(m.NumWorlds())
			keep.RemoveRange(m.NumWorlds()-copies, m.NumWorlds())
			m = m.Restrict(keep)
			q, _ = m.Minimize()
		}
		if q.NumWorlds() != blocks-steps {
			b.Fatalf("chain ended with a %d-world quotient, want %d", q.NumWorlds(), blocks-steps)
		}
	}
}

// Ablation: the muddy round loop with a per-round common-knowledge check.
func BenchmarkAblationMuddyRoundsQuotient(b *testing.B) {
	for _, n := range []int{10, 13} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			opts := muddy.SimOptions{TrackCommon: true}
			muddySet := []int{0, 1, 2}
			for i := 0; i < b.N; i++ {
				if _, err := muddy.SimulateOpts(n, muddySet, muddy.PublicAnnouncement, 5, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: formula evaluation cost by modal depth on a fixed model.
func BenchmarkAblationModalDepth(b *testing.B) {
	m := chainModel(512)
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("E^%d", k), func(b *testing.B) {
			f := logic.EK(nil, k, logic.P("p"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Eval(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: point-model construction cost as the system grows (runs x
// horizon), dominated by view hashing.
func BenchmarkAblationPointModelBuild(b *testing.B) {
	for _, size := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("runs=%d", size), func(b *testing.B) {
			rs := make([]*repro.Run, size)
			for i := range rs {
				r := repro.NewRun(fmt.Sprintf("r%d", i), 3, 12)
				r.Send(0, 1, repro.Time(i%4), repro.Time(i%4+1), "m")
				r.Send(1, 2, repro.Time(i%4+2), repro.Time(i%4+3), "n")
				rs[i] = r
			}
			sys := repro.MustSystem(rs...)
			interp := repro.Interpretation{"sent": repro.StablyTrue(repro.SentBy("m"))}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sys.Model(repro.CompleteHistoryView, interp)
			}
		})
	}
}

// Ablation: the parallel batch-evaluation engine against the serial loop
// on the muddy-round workload — n per-child know-sets plus group queries
// against one shared model. The serial arm is the engine every caller had
// before the fan-out; on a multi-core machine the parallel arm should
// approach workers× for the kernel-bound queries, and on one core the two
// arms coincide (EvalBatch degenerates to the serial loop).
func BenchmarkAblationBatchEval(b *testing.B) {
	const n = 13
	pz, err := muddy.New(n, []int{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	m := pz.Model()
	var fs []logic.Formula
	for i := 0; i < n; i++ {
		mi := logic.P(muddy.MuddyProp(i))
		fs = append(fs,
			logic.Disj(logic.K(logic.Agent(i), mi), logic.K(logic.Agent(i), logic.Neg(mi))))
	}
	fs = append(fs,
		logic.C(nil, logic.P(muddy.MProp)),
		logic.EK(nil, 3, logic.P(muddy.MProp)),
		logic.D(nil, logic.P(muddy.MuddyProp(0))),
	)
	if err := m.PrepareAgents(nil); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.EvalBatch(fs, kripke.BatchWorkers(mode.workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: the fault-injected scenario sweep's announcement ladder. The
// system is sampled once — the ablation measures the epistemic replay, not
// the simulation.
func BenchmarkAblationScenarioSweep(b *testing.B) {
	p := scenario.Params{Seed: 1}
	rg, err := scenario.RegimeByKey(p, "bounded")
	if err != nil {
		b.Fatal(err)
	}
	built, err := scenario.Build(p, rg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps, err := built.Ladder(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) == 0 {
			b.Fatal("empty ladder")
		}
	}
}

// Ablation: the gossip revelation chain — tens of public call revelations
// over a hundreds-of-worlds deviation universe, re-minimizing and
// batch-evaluating the verdict tower after every link. A deviation
// universe has a near-trivial quotient (synchronous perfect recall makes
// almost every world its own block). Universe sampling and model
// construction run inside the loop, mirroring how gossipsim consumes a
// chain.
func BenchmarkAblationGossipChain(b *testing.B) {
	const calls = "ab.cd.ef.ac.be.df.ae.bf.cd.ab.ce.df.ad.bc.ef.af.bd.ce.ab.cf.de.ac.bd.ef"
	const agents, perLink = 6, 12
	actual, err := gossip.ParseSequence(calls, agents)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := gossip.SampleDeviations(gossip.Any, agents, actual, perLink, 1)
		m := u.Model()
		res, err := m.RevealChain(actual, gossip.ChainOptions{Workers: 1, Depth: 2})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Steps[len(res.Steps)-1]
		if last.Worlds != 1 || !last.Common {
			b.Fatalf("chain should end on the actual world alone with C attained, got %+v", last)
		}
	}
}

// The kernel stage of a served muddy:n session, all children muddy: what
// knowd's loadSystem does on open (build the model, take its
// quotient-for-eval view) and what each announce does (evaluate the
// announcement on the view, restrict to its denotation), for the father's
// statement and the n-1 "nobody knows" rounds that leave the actual world
// alone. Transport, JSON and formula parsing are left out.
func BenchmarkServedAnnounceChain(b *testing.B) {
	for _, n := range []int{8, 9, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			all := make([]int, n)
			father := make([]string, n)
			nobody := make([]string, n)
			for i := range all {
				all[i] = i
				father[i] = fmt.Sprintf("muddy%d", i)
				nobody[i] = fmt.Sprintf("~(K%d muddy%d | K%d ~muddy%d)", i, i, i, i)
			}
			ladder := []logic.Formula{logic.MustParse(strings.Join(father, " | "))}
			nobodyF := logic.MustParse(strings.Join(nobody, " & "))
			for r := 1; r < n; r++ {
				ladder = append(ladder, nobodyF)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := muddy.New(n, all)
				if err != nil {
					b.Fatal(err)
				}
				view := p.Model().QuotientForEval(1)
				for _, f := range ladder {
					keep, err := view.Eval(f)
					if err != nil {
						b.Fatal(err)
					}
					view = view.Restrict(keep, 1)
				}
				if view.NumWorlds() != 1 {
					b.Fatalf("ladder ended on %d worlds, want 1", view.NumWorlds())
				}
			}
		})
	}
}

// The kernel stage of one served announce on a quotiented session: what
// knowd's announce handler does with the session's view (evaluate the
// announced formula, restrict the original model to its denotation and
// take a fresh quotient-for-eval view), on the first link of the systems
// whose views are quotiented — attack announcing del1, r2d2 and
// scenario:bounded announcing sent — built as knowd's loadSystem builds
// them. Building the system and its initial view is left out.
func BenchmarkServedQuotientedAnnounce(b *testing.B) {
	never := func(protocol.LocalView) bool { return false }
	systems := []struct {
		name, formula string
		pm            func() (*runs.PointModel, error)
	}{
		{"attack/del1", attack.DeliveredProp(1), func() (*runs.PointModel, error) {
			s, err := attack.Build(4, 10)
			if err != nil {
				return nil, err
			}
			return s.Sys.Model(runs.CompleteHistoryView, s.DeliveryInterp(never, never)), nil
		}},
		{"r2d2/sent", "sent", func() (*runs.PointModel, error) {
			return core.R2D2Chain(6, 9).Model(runs.CompleteHistoryView, runs.Interpretation{
				"sent": runs.StablyTrue(runs.SentBy("m")),
			}), nil
		}},
		{"scenario:bounded/sent", scenario.SentProp, func() (*runs.PointModel, error) {
			p := scenario.Params{Seed: 1}
			rg, err := scenario.RegimeByKey(p, "bounded")
			if err != nil {
				return nil, err
			}
			built, err := scenario.Build(p, rg)
			if err != nil {
				return nil, err
			}
			return built.PM, nil
		}},
	}
	for _, sys := range systems {
		b.Run(sys.name, func(b *testing.B) {
			pm, err := sys.pm()
			if err != nil {
				b.Fatal(err)
			}
			view := pm.EpistemicQuotient(1)
			if !view.Quotiented() {
				b.Fatalf("%s: the served view is not quotiented", sys.name)
			}
			f := logic.P(sys.formula)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keep, err := view.Eval(f)
				if err != nil {
					b.Fatal(err)
				}
				if next := view.Restrict(keep, 1); next.NumWorlds() == 0 {
					b.Fatalf("%s: announcement left no world", sys.name)
				}
			}
		})
	}
}

// Ablation: the full experiment suite end to end.
func BenchmarkAllExperiments(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reps, err := core.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reps {
			if !r.Pass {
				b.Fatalf("experiment %s failed", r.ID)
			}
		}
	}
}
