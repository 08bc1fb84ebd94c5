package attack

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/runs"
)

// bestRun is System.BestChainRun with a fatal check for test use.
func bestRun(t *testing.T, s *System) string {
	t.Helper()
	best := s.BestChainRun()
	if best == "" {
		t.Fatal("no initiated run")
	}
	return best
}

// TestReplayDeliveryChainDeepensKnowledge checks the Section 4/7 reading of
// the chain replay: publicly announcing "at least d messages were
// delivered" prunes exactly the points the generals could not distinguish
// on their own, monotonically deepening knowledge of the intent at the
// all-delivered point. The contrast with the handshake itself is sharp:
// already the first announcement eliminates every intent-free point (only
// initiated runs deliver messages), so the intent becomes common knowledge
// at once — the public announcement achieves in one link what Section 4
// proves no number of delivered messages can.
func TestReplayDeliveryChainDeepensKnowledge(t *testing.T) {
	s := build(t, 4, 10)
	never := func(protocol.LocalView) bool { return false }
	pm := s.Sys.Model(runs.CompleteHistoryView, s.DeliveryInterp(never, never))

	steps, err := s.ReplayDeliveryChain(pm, bestRun(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != s.Budget {
		t.Fatalf("chain has %d links, want %d (all announcements truthful in the all-delivered run)",
			len(steps), s.Budget)
	}
	prevDepth, prevPoints := -1, pm.NumWorlds()+1
	for _, st := range steps {
		if st.Depth < prevDepth {
			t.Errorf("depth fell from %d to %d at link %d", prevDepth, st.Depth, st.Deliveries)
		}
		if st.Points >= prevPoints {
			t.Errorf("announcement %d did not prune any point (%d -> %d)",
				st.Deliveries, prevPoints, st.Points)
		}
		if st.Depth < st.Deliveries {
			t.Errorf("link %d: depth %d below the announced delivery count", st.Deliveries, st.Depth)
		}
		if !st.Common {
			t.Errorf("link %d: intent not common knowledge after the public delivery announcement",
				st.Deliveries)
		}
		prevDepth, prevPoints = st.Depth, st.Points
	}
}

// TestDeliveryInterpMatchesRunCounts cross-checks the timeline-based
// delivery facts against the run's own message list.
func TestDeliveryInterpMatchesRunCounts(t *testing.T) {
	s := build(t, 3, 8)
	never := func(protocol.LocalView) bool { return false }
	interp := s.DeliveryInterp(never, never)
	for _, r := range s.Sys.Runs {
		for tt := runs.Time(0); tt <= r.Horizon; tt++ {
			want := 0
			for _, m := range r.Messages {
				if m.Delivered() && m.RecvTime <= tt {
					want++
				}
			}
			for d := 1; d <= s.Budget; d++ {
				if got := interp[DeliveredProp(d)](r, tt); got != (want >= d) {
					t.Fatalf("run %s t=%d: %s = %v, want %v (deliveries=%d)",
						r.Name, tt, DeliveredProp(d), got, want >= d, want)
				}
			}
		}
	}
}
