// Package gossip models the telephone-call protocols of Apt & Wojtczak
// ("Common Knowledge in a Logic of Gossips", cited in PAPERS.md) as a
// workload family for the announcement-chain machinery: n agents each hold
// one secret, a call between two agents merges their secret sets, and the
// epistemic question is which knowledge level of "everyone is an expert" —
// E, E^2, …, C over all agents — a call sequence attains at termination.
//
// The encoding is columnar throughout. A universe of candidate call
// sequences (exhaustive for small instances, seeded sampling off
// faults.SubStream beyond a cap) becomes one Kripke model: worlds are
// complete sequences of a fixed length, secret-distribution facts are
// valuation columns written from a single replay pass, and per-agent
// indistinguishability comes from call observability — two sequences are
// equivalent for agent a exactly when a took part in the same calls, at the
// same positions, with the same peers and the same exchanged secret sets
// (synchronous perfect recall). Executing a call sequence then turns into
// a public announcement chain: revealing the calls one link at a time
// restricts the model, which is minimized and has its verdict tower
// batch-evaluated per link via EvalBatch.
//
// The private channel itself never creates common knowledge — the paper's
// central obstruction — while the revelation chain shows C arriving only as
// the sequence becomes public; the attainment search reports, per call
// convention (ANY, CO, LNS), the minimal call count reaching each level.
package gossip

import (
	"fmt"
	"strings"
)

// MaxAgents bounds the agent count: secret sets are uint16 masks and
// agents render as the letters 'a'..'l'.
const MaxAgents = 12

// Convention is a call admissibility rule from Apt & Wojtczak: which call
// the scheduler may place next, given the history so far.
type Convention int

const (
	// Any places arbitrary calls (the caller may call anyone, repeatedly).
	Any Convention = iota
	// CO ("call once") forbids a second call between the same unordered
	// pair of agents.
	CO
	// LNS ("learn new secrets") lets a call b only when a is not yet
	// familiar with b's secret.
	LNS
)

// Conventions lists every convention in table order.
func Conventions() []Convention { return []Convention{Any, CO, LNS} }

// Key returns the convention's lower-case table key.
func (v Convention) Key() string {
	switch v {
	case Any:
		return "any"
	case CO:
		return "co"
	case LNS:
		return "lns"
	}
	return fmt.Sprintf("conv%d", int(v))
}

// ParseConvention maps a table key back to its convention.
func ParseConvention(key string) (Convention, error) {
	for _, v := range Conventions() {
		if v.Key() == key {
			return v, nil
		}
	}
	return 0, fmt.Errorf("gossip: unknown convention %q (want any, co or lns)", key)
}

// Call is one directed telephone call: Caller dials Callee and the two
// exchange every secret either knows.
type Call struct {
	Caller, Callee uint8
}

// String renders the call as two agent letters, caller first: "ab" means
// a calls b.
func (c Call) String() string {
	return string([]byte{'a' + c.Caller, 'a' + c.Callee})
}

// Sequence is a complete call sequence, executed left to right.
type Sequence []Call

// String renders the sequence as dot-joined calls: "ab.cd.ac.bd".
func (s Sequence) String() string {
	var b strings.Builder
	b.Grow(len(s) * 3)
	for i, c := range s {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// ParseSequence parses the String rendering ("ab.cd.ac.bd") for n agents.
func ParseSequence(s string, n int) (Sequence, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	seq := make(Sequence, 0, len(parts))
	for _, p := range parts {
		if len(p) != 2 {
			return nil, fmt.Errorf("gossip: call %q is not two agent letters", p)
		}
		caller, callee := int(p[0]-'a'), int(p[1]-'a')
		if caller < 0 || caller >= n || callee < 0 || callee >= n {
			return nil, fmt.Errorf("gossip: call %q names an agent outside a-%c", p, 'a'+byte(n-1))
		}
		if caller == callee {
			return nil, fmt.Errorf("gossip: call %q has an agent dialing itself", p)
		}
		seq = append(seq, Call{uint8(caller), uint8(callee)})
	}
	return seq, nil
}

// State is a gossip situation mid-sequence: which secrets each agent is
// familiar with, plus the used-pair set CO admissibility consults.
type State struct {
	// Fam[i] has bit j set when agent i is familiar with j's secret.
	Fam []uint16
	// used has the bit for unordered pair {i,j} set once they have called.
	used uint64
	n    int
}

// NewState returns the initial situation: every agent knows exactly its
// own secret and no pair has called.
func NewState(n int) *State {
	if n < 2 || n > MaxAgents {
		panic(fmt.Sprintf("gossip: %d agents (want 2..%d)", n, MaxAgents))
	}
	s := &State{Fam: make([]uint16, n), n: n}
	for i := range s.Fam {
		s.Fam[i] = 1 << i
	}
	return s
}

// Reset restores the initial situation in place.
func (s *State) Reset() {
	for i := range s.Fam {
		s.Fam[i] = 1 << i
	}
	s.used = 0
}

func pairBit(c Call) uint64 {
	i, j := int(c.Caller), int(c.Callee)
	if i > j {
		i, j = j, i
	}
	return 1 << (i*MaxAgents + j)
}

// Admissible reports whether the convention lets the scheduler place c in
// the current situation.
func (s *State) Admissible(v Convention, c Call) bool {
	if c.Caller == c.Callee || int(c.Caller) >= s.n || int(c.Callee) >= s.n {
		return false
	}
	switch v {
	case CO:
		return s.used&pairBit(c) == 0
	case LNS:
		return s.Fam[c.Caller]&(1<<c.Callee) == 0
	}
	return true
}

// Apply executes the call: both participants end up familiar with the
// union of their secret sets. It returns that union — exactly what each
// participant observes about the other during the call.
func (s *State) Apply(c Call) uint16 {
	u := s.Fam[c.Caller] | s.Fam[c.Callee]
	s.Fam[c.Caller] = u
	s.Fam[c.Callee] = u
	s.used |= pairBit(c)
	return u
}

// Expert reports whether agent i is familiar with every secret.
func (s *State) Expert(i int) bool { return s.Fam[i] == uint16(1<<s.n)-1 }

// AllExpert reports whether every agent is an expert.
func (s *State) AllExpert() bool {
	for i := 0; i < s.n; i++ {
		if !s.Expert(i) {
			return false
		}
	}
	return true
}

// Calls enumerates the full directed-call alphabet for n agents in
// deterministic (caller-major) order.
func Calls(n int) []Call {
	out := make([]Call, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				out = append(out, Call{uint8(i), uint8(j)})
			}
		}
	}
	return out
}
