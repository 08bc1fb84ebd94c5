package gossip

import (
	"reflect"
	"testing"
)

func chainFixture(t *testing.T, conv Convention, seed int64) (*Model, Sequence) {
	t.Helper()
	actual, err := ParseSequence("ab.cd.ac.bd", 4)
	if err != nil {
		t.Fatal(err)
	}
	u := SampleDeviations(conv, 4, actual, 8, seed)
	if len(u.Seqs) < 8 {
		t.Fatalf("deviation universe has only %d worlds", len(u.Seqs))
	}
	return u.Model(), actual
}

// TestRevealChainWorkerDeterminism pins the chain result across worker
// counts (serial, two workers, one per core).
func TestRevealChainWorkerDeterminism(t *testing.T) {
	m, actual := chainFixture(t, LNS, 1)
	base, err := m.RevealChain(actual, ChainOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, -1} {
		got, err := m.RevealChain(actual, ChainOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: chain result differs", workers)
		}
	}
}

// TestRevealChainConverges: once every call is public the model is the
// actual world alone and the tower holds trivially — and no earlier link
// may claim common knowledge, because a deviation universe always carries
// uncertainty until its last divergence is eliminated.
func TestRevealChainConverges(t *testing.T) {
	m, actual := chainFixture(t, CO, 1)
	res, err := m.RevealChain(actual, ChainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != len(actual) {
		t.Fatalf("chain has %d links, want %d", len(res.Steps), len(actual))
	}
	last := res.Steps[len(res.Steps)-1]
	if last.Worlds != 1 || last.Blocks != 1 || !last.Common {
		t.Fatalf("final link should be a single common-knowledge world, got %+v", last)
	}
	if last.EDepth != m.U.N-1 {
		t.Fatalf("final link E-depth %d, want the full tower %d", last.EDepth, m.U.N-1)
	}
	prev := len(m.U.Seqs)
	for _, st := range res.Steps {
		if st.Worlds > prev {
			t.Fatalf("link %d grew the model: %d -> %d worlds", st.Link, prev, st.Worlds)
		}
		prev = st.Worlds
	}
}

func TestRevealChainErrors(t *testing.T) {
	actual, err := ParseSequence("ab.cd.ac.bd", 4)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ParseSequence("ba.dc.ca.db", 4)
	if err != nil {
		t.Fatal(err)
	}
	// A two-world universe built by hand, so membership is exact.
	u := &Universe{N: 4, Conv: CO, Len: 4, Seqs: []Sequence{actual, other}}
	m := u.Model()
	if _, err := m.RevealChain(actual[:2], ChainOptions{}); err == nil {
		t.Error("revealing a short sequence should fail")
	}
	missing, err := ParseSequence("ad.bc.ab.cd", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RevealChain(missing, ChainOptions{}); err == nil {
		t.Error("revealing a sequence outside the universe should fail")
	}
}

func TestTowerPanicsAndModelPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Tower(0) should panic")
			}
		}()
		Tower(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty-universe Model should panic")
			}
		}()
		(&Universe{N: 3}).Model()
	}()
}
