// Package kripke implements finite epistemic Kripke models and the model
// checking of the knowledge hierarchy of Halpern & Moses Section 3.
//
// A model is a finite set of worlds, one indistinguishability partition per
// agent, and a valuation of ground facts. This is exactly the graph of
// Section 6 of the paper: worlds are nodes, and two worlds share an edge
// labeled p_i iff agent i has the same view in both. Knowledge operators are
// computed from the partitions:
//
//   - K_i φ holds at w iff φ holds throughout agent i's partition class of w.
//   - D_G φ uses the common refinement (joint views) of the G partitions.
//   - C_G φ holds at w iff φ holds throughout the G-reachability component
//     of w — the connected component of w under the union of the G
//     partitions — which the package computes with a disjoint-set union.
//
// The package also provides public-announcement updates (the father's
// announcement in the muddy children puzzle is Announce) and validity
// checking used by the axiom checkers in axioms.go.
//
// # Construction architecture: columns and class ids
//
// Construction is columnar. Each agent's indistinguishability relation is
// stored in one of two interchangeable forms: a disjoint-set union that
// accumulates pairwise Indistinguishable edges, or a dense class-id vector
// installed in one shot (the Builder's SetPartition / PartitionFromKeys).
// Valuations are bitset columns, written word-by-word by bulk constructors.
// The Builder in builder.go is the front door for batch construction;
// the incremental Model methods (SetTrue, Indistinguishable, SetName)
// remain for small or exploratory models and convert between the forms
// transparently.
//
// Model updates reuse rather than rebuild: Restrict compacts valuation
// columns with the word-level gather kernel of the bitset package, renames
// class ids through a pooled scratch, and hands the surviving joint-view
// partitions to the restricted model (restriction commutes with common
// refinement), so an announcement chain — the muddy children rounds, the
// attack message chains — never recomputes derived state it can remap.
//
// # Evaluation architecture: masks and caches
//
// Formula denotations are bit sets over the worlds, and every knowledge
// operator reduces to one kernel over a partition of the worlds (the
// agent's view classes for K_i, their common refinement for D_G, the
// G-reachability components for C_G). Each partition is materialized once
// as per-class bitset masks in CSR layout (see partition.go) and the
// kernel works on whole 64-bit words: classes that escape φ are found by
// scanning only ¬φ, and are removed from the full set by word-level
// AND-NOT of their masks.
//
// The derived tables are built lazily and cached on the model behind an
// atomic pointer: each agent's partition on its first use (so one-shot
// models never pay for tables no formula touches), and one partition per
// distinct agent group for D_G refinements and C_G reachability components
// (so fixed-point iteration re-uses the component structure instead of
// rebuilding a union-find per step). When a group operator needs many
// agents' tables at once on a large model, the per-agent builds are
// sharded across goroutines, as are the per-agent passes of the E_G/S_G
// kernels — each worker owns its scratch, and small models keep the serial
// path. Construction calls (Indistinguishable) invalidate the tables.
// Evaluation itself runs on a pooled evaluator that memoizes closed
// subformula denotations by structural key and recycles scratch sets,
// making steady-state Eval near-allocation-free. All caches are safe for
// concurrent Eval on a fully constructed model.
package kripke

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/logic"
	"repro/internal/unionfind"
)

// Parallelism gates for the sharded construction and kernel paths. They are
// variables (not constants) so tests can lower them to exercise the parallel
// paths on small models; production code treats them as constants.
var (
	// parallelPartsMinWorlds is the world count from which missing per-agent
	// partition tables are built concurrently (one goroutine per table).
	parallelPartsMinWorlds = 2048
	// parallelPartsMinAgents is the minimum number of missing tables worth
	// spawning goroutines for.
	parallelPartsMinAgents = 3
	// parallelKernelMinWords is the universe size (in 64-bit words) from
	// which the per-agent passes of the E_G/S_G kernels are sharded across
	// workers, each with its own scratch and accumulator.
	parallelKernelMinWords = 64
	// parallelKernelMinAgents is the minimum group width worth sharding.
	parallelKernelMinAgents = 4
)

// Model is a finite epistemic model. Create one with NewModel (or batch
// construct with a Builder), add facts and indistinguishability edges, then
// evaluate formulas with Eval. Models may be evaluated concurrently once
// fully constructed, but construction is not safe for concurrent use (nor
// concurrent with evaluation).
type Model struct {
	numWorlds int
	numAgents int

	names   []string                       // optional world names; nil if none assigned
	nameIdx atomic.Pointer[map[string]int] // lazy reverse lookup, built on first WorldByName

	// rels holds each agent's indistinguishability relation in whichever
	// form construction produced: DSU (edge accumulation) or dense class
	// ids (bulk installation). The derived partition tables are built
	// lazily per agent and invalidated by construction calls.
	rels []agentRel

	valuation map[string]*bitset.Set

	// inheritedJoint carries joint-view partitions remapped from the model
	// this one was restricted from, keyed like derived.joint. Read-only
	// after construction; jointPartition materializes entries on demand.
	inheritedJoint map[string]pendingPart

	// derived caches the partition tables; buildMu serializes their
	// (re)construction so concurrent evaluators build them once.
	derived atomic.Pointer[derived]
	buildMu sync.Mutex

	// evalPool recycles evaluators (scratch sets, memo tables, kernel
	// state) across Eval calls.
	evalPool sync.Pool

	// Temporal, if non-nil, evaluates the run-based operators of Sections
	// 11–12 (E^ε, E^⋄, E^T and their C variants) and the linear-time ◇/□.
	// Plain Kripke models reject those operators.
	Temporal TemporalSemantics
}

// agentRel is one agent's indistinguishability relation during
// construction. At most one of the two forms is authoritative: dsu when
// edges are being accumulated, ids (dense class ids, n classes) when a
// whole partition was installed at once. Both nil means the discrete
// partition (every world distinguishable — the NewModel default).
type agentRel struct {
	dsu *unionfind.DSU
	ids []int32
	n   int
}

// pendingPart is a partition delivered as raw dense class ids, CSR tables
// not yet built (they are built only if the partition is actually used).
type pendingPart struct {
	ids []int32
	n   int
}

// derived holds everything computed from the construction-time relations:
// the per-agent view partitions (built lazily, one atomic slot each), plus
// memoized per-group partitions for the D_G common refinement and the C_G
// reachability components.
type derived struct {
	parts     []atomic.Pointer[partition] // per-agent view partitions, lazy
	allAgents []int                       // 0..numAgents-1, the resolution of the nil group

	mu    sync.RWMutex
	reach map[string]*partition // group key -> G-reachability components
	joint map[string]*partition // group key -> common refinement of views

	// In-flight build registries: per-group single-flight, so concurrent
	// cold evaluators (an EvalBatch fan-out with no warm-up) build each
	// group partition exactly once and the rest wait for the result.
	reachFlight map[string]*partFlight
	jointFlight map[string]*partFlight
}

// partFlight is one in-flight group-partition build: waiters block on done
// and read p afterwards (p is written before done is closed).
type partFlight struct {
	done chan struct{}
	p    *partition
}

// TemporalSemantics evaluates temporal operators over a model whose worlds
// carry run/time structure. rec evaluates subformulas in the same model
// (with the current fixed-point environment in scope).
type TemporalSemantics interface {
	EvalTemporal(m *Model, f logic.Formula, rec func(sub logic.Formula) (*bitset.Set, error)) (*bitset.Set, error)
}

// NewModel returns a model with numWorlds worlds and numAgents agents in
// which every pair of distinct worlds is distinguishable by every agent and
// no ground facts hold.
func NewModel(numWorlds, numAgents int) *Model {
	return &Model{
		numWorlds: numWorlds,
		numAgents: numAgents,
		rels:      make([]agentRel, numAgents),
		valuation: make(map[string]*bitset.Set),
	}
}

// NumWorlds returns the number of worlds in the model.
func (m *Model) NumWorlds() int { return m.numWorlds }

// NumAgents returns the number of agents in the model.
func (m *Model) NumAgents() int { return m.numAgents }

// ensureNames allocates the name column on first use.
func (m *Model) ensureNames() {
	if m.names == nil {
		m.names = make([]string, m.numWorlds)
	}
}

// SetName assigns a name to a world (for display and lookup).
func (m *Model) SetName(w int, name string) {
	m.ensureNames()
	m.names[w] = name
	if idx := m.nameIdx.Load(); idx != nil {
		(*idx)[name] = w
	}
}

// Name returns the name of world w, or "w<index>" if unnamed.
func (m *Model) Name(w int) string {
	if w >= 0 && w < len(m.names) && m.names[w] != "" {
		return m.names[w]
	}
	return fmt.Sprintf("w%d", w)
}

// WorldByName returns the index of the world with the given name. The
// reverse index is built lazily on first lookup, so models that are
// constructed, restricted and discarded without ever resolving a name (the
// inner models of an announcement chain) skip the map entirely.
func (m *Model) WorldByName(name string) (int, bool) {
	idx := m.nameIdx.Load()
	if idx == nil {
		m.buildMu.Lock()
		if idx = m.nameIdx.Load(); idx == nil {
			mp := make(map[string]int, len(m.names))
			for w, nm := range m.names {
				if nm != "" {
					mp[nm] = w
				}
			}
			idx = &mp
			m.nameIdx.Store(idx)
		}
		m.buildMu.Unlock()
	}
	w, ok := (*idx)[name]
	return w, ok
}

// SetTrue makes the ground fact prop true at world w.
func (m *Model) SetTrue(w int, prop string) {
	s, ok := m.valuation[prop]
	if !ok {
		s = bitset.New(m.numWorlds)
		m.valuation[prop] = s
	}
	s.Add(w)
}

// SetFact sets the truth value of prop at w explicitly.
func (m *Model) SetFact(w int, prop string, value bool) {
	if value {
		m.SetTrue(w, prop)
		return
	}
	if s, ok := m.valuation[prop]; ok {
		s.Remove(w)
	}
}

// setFactSet installs a whole valuation column at once (internal bulk
// constructor used by the Builder, Restrict and RefineAgent).
func (m *Model) setFactSet(prop string, set *bitset.Set) {
	m.valuation[prop] = set
}

// factShared returns the internal world set of prop (nil if the fact is
// unknown). The evaluator reads it without copying; callers must not
// mutate it.
func (m *Model) factShared(prop string) *bitset.Set {
	return m.valuation[prop]
}

// FactSet returns the set of worlds where prop holds. Unknown facts hold
// nowhere. The returned set is a copy.
func (m *Model) FactSet(prop string) *bitset.Set {
	if s, ok := m.valuation[prop]; ok {
		return s.Clone()
	}
	return bitset.New(m.numWorlds)
}

// Facts returns the names of all ground facts with a valuation entry, in
// sorted order (so reports built from it are deterministic).
func (m *Model) Facts() []string {
	out := make([]string, 0, len(m.valuation))
	for name := range m.valuation {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Indistinguishable declares that agent a cannot distinguish worlds w1 and
// w2 (they are joined by an edge labeled p_a in the Section 6 graph). The
// relation is closed under reflexivity, symmetry and transitivity
// automatically, as required for view-based (S5) interpretations.
func (m *Model) Indistinguishable(a int, w1, w2 int) {
	r := &m.rels[a]
	if r.dsu == nil {
		if r.ids != nil {
			r.dsu = unionfind.NewFromIDs(r.ids, r.n)
			r.ids, r.n = nil, 0
		} else {
			r.dsu = unionfind.New(m.numWorlds)
		}
	}
	if r.dsu.Union(w1, w2) {
		m.invalidateDerived()
	}
}

// invalidateDerived drops every table derived from the relations: the
// partition-table cache and the joint-view partitions inherited from a
// restriction, which describe the pre-mutation relations.
func (m *Model) invalidateDerived() {
	if m.derived.Load() != nil {
		m.derived.Store(nil)
	}
	m.inheritedJoint = nil
}

// setPartition installs agent a's whole view partition as dense class ids
// (the columnar counterpart of an Indistinguishable edge list). It takes
// ownership of ids.
func (m *Model) setPartition(a int, ids []int32, numClasses int) {
	m.rels[a] = agentRel{ids: ids, n: numClasses}
	m.invalidateDerived()
}

// SameClass reports whether agent a has the same view at w1 and w2.
func (m *Model) SameClass(a int, w1, w2 int) bool {
	r := &m.rels[a]
	switch {
	case r.dsu != nil:
		return r.dsu.Same(w1, w2)
	case r.ids != nil:
		return r.ids[w1] == r.ids[w2]
	default:
		return w1 == w2
	}
}

// tables returns the derived-table shell, creating it on first use. The
// per-agent partitions inside it are built lazily by part/ensureParts, so
// touching the shell (every getEvaluator does) costs a few small
// allocations once per construction, not a full table build.
func (m *Model) tables() *derived {
	if t := m.derived.Load(); t != nil {
		return t
	}
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	if t := m.derived.Load(); t != nil {
		return t
	}
	t := &derived{
		parts:     make([]atomic.Pointer[partition], m.numAgents),
		allAgents: make([]int, m.numAgents),
		reach:     make(map[string]*partition),
		joint:     make(map[string]*partition),
	}
	for i := range t.allAgents {
		t.allAgents[i] = i
	}
	m.derived.Store(t)
	return t
}

// buildPart materializes agent a's partition table from whichever relation
// form construction left behind.
func (m *Model) buildPart(a int) *partition {
	r := &m.rels[a]
	switch {
	case r.dsu != nil:
		ids := make([]int32, m.numWorlds)
		n := r.dsu.CompIDsInto(ids, nil)
		return newPartition(ids, n)
	case r.ids != nil:
		// The id vector is never mutated in place (conversions replace it),
		// so the partition may alias it.
		return newPartition(r.ids, r.n)
	default:
		ids := make([]int32, m.numWorlds)
		for w := range ids {
			ids[w] = int32(w)
		}
		return newPartition(ids, m.numWorlds)
	}
}

// part returns agent a's partition table, building it on first use. The
// loaded-table fast path is kept inlinable; the build takes partSlow.
func (m *Model) part(t *derived, a int) *partition {
	if p := t.parts[a].Load(); p != nil {
		return p
	}
	return m.partSlow(t, a)
}

func (m *Model) partSlow(t *derived, a int) *partition {
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	if p := t.parts[a].Load(); p != nil {
		return p
	}
	p := m.buildPart(a)
	t.parts[a].Store(p)
	return p
}

// ensureParts makes sure every listed agent's partition table exists,
// sharding the builds across goroutines when the model is large enough for
// the table construction itself to dominate (each build owns its scratch,
// so workers share nothing but the atomic result slots).
func (m *Model) ensureParts(t *derived, agents []int) {
	missing := 0
	for _, a := range agents {
		if t.parts[a].Load() == nil {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	var todo []int
	for _, a := range agents {
		if t.parts[a].Load() == nil {
			dup := false
			for _, b := range todo {
				if b == a {
					dup = true
					break
				}
			}
			if !dup {
				todo = append(todo, a)
			}
		}
	}
	if len(todo) == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(todo) {
		workers = len(todo)
	}
	if len(todo) < parallelPartsMinAgents || m.numWorlds < parallelPartsMinWorlds || workers < 2 {
		for _, a := range todo {
			t.parts[a].Store(m.buildPart(a))
		}
		return
	}
	var wg sync.WaitGroup
	for off := 0; off < workers; off++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := off; i < len(todo); i += workers {
				a := todo[i]
				t.parts[a].Store(m.buildPart(a))
			}
		}(off)
	}
	wg.Wait()
}

// PrepareAgents materializes the partition tables of the given group (nil
// means all agents) ahead of evaluation, sharding the builds across
// goroutines on large models. It is optional — evaluation builds tables
// lazily — but a caller about to run a per-agent loop of single-agent
// evaluations (which would otherwise build one table at a time) can
// front-load the construction in parallel.
func (m *Model) PrepareAgents(g logic.Group) error {
	agents, err := m.resolveGroup(g)
	if err != nil {
		return err
	}
	m.ensureParts(m.tables(), agents)
	return nil
}

// ClassID returns agent a's dense view-class id of world w.
func (m *Model) ClassID(a, w int) int {
	return int(m.part(m.tables(), a).ids[w])
}

// groupKey appends the canonical cache key of a resolved agent list: "*"
// for exactly the full agent set 0..numAgents-1, the comma-joined indices
// otherwise (agent lists with duplicates keep their literal key, which at
// worst caches an equal partition twice).
func (m *Model) groupKey(dst []byte, agents []int) []byte {
	if len(agents) == m.numAgents {
		full := true
		for i, a := range agents {
			if a != i {
				full = false
				break
			}
		}
		if full {
			return append(dst, '*')
		}
	}
	for i, a := range agents {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(a), 10)
	}
	return dst
}

// reachPartition returns the partition of the worlds into G-reachability
// components (Section 6: the transitive closure of the union of the G view
// partitions), memoized per agent group. C_G evaluation — including every
// iteration of a fixed point — reuses it instead of rebuilding a
// union-find per call. Unlike joint views, reachability components do
// not survive a restriction (two kept worlds may be connected only through
// removed worlds), so a restricted model builds its own.
func (m *Model) reachPartition(t *derived, agents []int, keyBuf []byte) *partition {
	key := m.groupKey(keyBuf[:0], agents)
	// Warm fast path, kept free of the single-flight closure: fixed-point
	// iteration re-reads the memoized partition once per step.
	t.mu.RLock()
	p := t.reach[string(key)]
	t.mu.RUnlock()
	if p != nil {
		return p
	}
	return singleFlight(t, key, t.reach, &t.reachFlight, func() *partition {
		return m.reachScratch(t, agents)
	})
}

// singleFlight resolves one group partition through its memo map with an
// in-flight registry: the first caller for a key builds (outside the lock),
// later callers for the same key wait on the build instead of duplicating
// it. cache and the flight registry are guarded by t.mu; callers check the
// cache's read fast path themselves before paying for the build closure.
// A panicking build unregisters its flight and wakes the waiters with a
// nil result, so they retry (one of them re-runs the build and surfaces
// the panic) instead of blocking forever on a wedged key.
func singleFlight(t *derived, key []byte, cache map[string]*partition, flights *map[string]*partFlight, build func() *partition) *partition {
	for {
		t.mu.Lock()
		if p := cache[string(key)]; p != nil {
			t.mu.Unlock()
			return p
		}
		if fl := (*flights)[string(key)]; fl != nil {
			t.mu.Unlock()
			<-fl.done
			if fl.p != nil {
				return fl.p
			}
			continue // the builder panicked; retry (and maybe rebuild)
		}
		fl := &partFlight{done: make(chan struct{})}
		if *flights == nil {
			*flights = make(map[string]*partFlight)
		}
		(*flights)[string(key)] = fl
		t.mu.Unlock()

		var p *partition
		func() {
			defer func() {
				t.mu.Lock()
				if p != nil {
					cache[string(key)] = p
				}
				delete(*flights, string(key))
				t.mu.Unlock()
				fl.p = p
				close(fl.done)
			}()
			p = build()
		}()
		return p
	}
}

// reachScratch builds the G-reachability components with one union-find
// pass over every agent's whole partition.
func (m *Model) reachScratch(t *derived, agents []int) *partition {
	m.ensureParts(t, agents)
	d := unionfind.New(m.numWorlds)
	var first []int32
	for _, a := range agents {
		part := t.parts[a].Load()
		if cap(first) < part.n {
			first = make([]int32, part.n)
		} else {
			first = first[:part.n]
		}
		for i := range first {
			first[i] = -1
		}
		for w, id := range part.ids {
			if first[id] < 0 {
				first[id] = int32(w)
			} else {
				d.Union(int(first[id]), w)
			}
		}
	}
	ids := make([]int32, m.numWorlds)
	n := d.CompIDsInto(ids, nil)
	return newPartition(ids, n)
}

// jointPartition returns the common refinement of the agents' view
// partitions (the joint view underlying D_G), memoized per agent group. A
// partition inherited from the model this one was restricted from (common
// refinement commutes with restriction, so the remapped ids are exact) is
// materialized in preference to recomputing the refinement. Callers must
// pass a non-empty agent list.
func (m *Model) jointPartition(t *derived, agents []int, keyBuf []byte) *partition {
	key := m.groupKey(keyBuf[:0], agents)
	t.mu.RLock()
	p := t.joint[string(key)]
	t.mu.RUnlock()
	if p != nil {
		return p
	}
	return singleFlight(t, key, t.joint, &t.jointFlight, func() *partition {
		if pp, ok := m.inheritedJoint[string(key)]; ok {
			return newPartition(pp.ids, pp.n)
		}
		m.ensureParts(t, agents)
		ids := make([]int32, m.numWorlds)
		p0 := t.parts[agents[0]].Load()
		copy(ids, p0.ids)
		n := p0.n
		pair := make(map[uint64]int32)
		for _, a := range agents[1:] {
			clear(pair)
			other := t.parts[a].Load().ids
			next := int32(0)
			for w := 0; w < m.numWorlds; w++ {
				k := uint64(ids[w])<<32 | uint64(uint32(other[w]))
				id, ok := pair[k]
				if !ok {
					id = next
					next++
					pair[k] = id
				}
				ids[w] = id
			}
			n = int(next)
		}
		return newPartition(ids, n)
	})
}

// everyoneInto computes E_G(phi) = ∧_a K_a(phi) into dst (overwritten).
// Wide groups on large universes shard the per-agent kernel passes across
// workers, each with its own accumulator and scratch; the results meet in
// one word-level AND reduction.
func (m *Model) everyoneInto(t *derived, agents []int, dst, phi *bitset.Set, ks *kernelScratch) {
	dst.Fill()
	if m.kernelParallel(agents) {
		m.parallelKnow(t, agents, dst, phi, true)
		return
	}
	for _, a := range agents {
		m.part(t, a).andKnowInto(dst, phi, ks)
	}
}

// kernelParallel reports whether the per-agent passes of a group kernel
// are worth sharding for this model and group.
func (m *Model) kernelParallel(agents []int) bool {
	return len(agents) >= parallelKernelMinAgents &&
		(m.numWorlds+63)>>6 >= parallelKernelMinWords &&
		runtime.GOMAXPROCS(0) > 1
}

// parallelKnow shards the per-agent K passes of E_G (conj=true) or S_G
// (conj=false) across workers. dst must be pre-filled (E) or pre-cleared
// (S); each worker owns a private accumulator and kernel scratch, and the
// per-worker results are folded into dst with word-level AND/OR.
func (m *Model) parallelKnow(t *derived, agents []int, dst, phi *bitset.Set, conj bool) {
	m.ensureParts(t, agents)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(agents) {
		workers = len(agents)
	}
	results := make([]*bitset.Set, workers)
	var wg sync.WaitGroup
	for off := 0; off < workers; off++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			var ks kernelScratch
			acc := bitset.New(m.numWorlds)
			if conj {
				acc.Fill()
				for i := off; i < len(agents); i += workers {
					t.parts[agents[i]].Load().andKnowInto(acc, phi, &ks)
				}
			} else {
				tmp := bitset.New(m.numWorlds)
				for i := off; i < len(agents); i += workers {
					t.parts[agents[i]].Load().knowInto(tmp, phi, &ks)
					acc.Or(tmp)
				}
			}
			results[off] = acc
		}(off)
	}
	wg.Wait()
	for _, acc := range results {
		if conj {
			dst.And(acc)
		} else {
			dst.Or(acc)
		}
	}
}

// KnowSet computes K_a applied to an already-evaluated world set phi: the
// worlds whose whole partition class for agent a lies inside phi. It is the
// set-level form of the K_a operator, used by the temporal semantics of the
// runs package.
func (m *Model) KnowSet(a int, phi *bitset.Set) *bitset.Set {
	ev := m.getEvaluator()
	defer m.putEvaluator(ev)
	out := bitset.New(m.numWorlds)
	m.part(ev.t, a).knowInto(out, phi, &ev.ks)
	return out
}

// GroupAgents expands a (possibly nil) group into explicit agent indices.
func (m *Model) GroupAgents(g logic.Group) ([]int, error) {
	return m.resolveGroup(g)
}

// EveryoneSet computes E_G applied to an already-evaluated world set.
func (m *Model) EveryoneSet(agents []int, phi *bitset.Set) *bitset.Set {
	ev := m.getEvaluator()
	defer m.putEvaluator(ev)
	out := bitset.New(m.numWorlds)
	m.everyoneInto(ev.t, agents, out, phi, &ev.ks)
	return out
}

// CommonSet computes C_G applied to an already-evaluated world set: the
// worlds whose whole G-reachability component satisfies phi.
func (m *Model) CommonSet(agents []int, phi *bitset.Set) *bitset.Set {
	if len(agents) == 0 {
		return phi.Clone()
	}
	ev := m.getEvaluator()
	defer m.putEvaluator(ev)
	out := bitset.New(m.numWorlds)
	p := m.reachPartition(ev.t, agents, ev.keyScratch())
	p.knowInto(out, phi, &ev.ks)
	return out
}

// DistSet computes D_G applied to an already-evaluated world set:
// knowledge under the joint view, i.e. the common refinement of the
// agents' partitions.
func (m *Model) DistSet(agents []int, phi *bitset.Set) *bitset.Set {
	if len(agents) == 0 {
		return phi.Clone()
	}
	ev := m.getEvaluator()
	defer m.putEvaluator(ev)
	out := bitset.New(m.numWorlds)
	p := m.jointPartition(ev.t, agents, ev.keyScratch())
	p.knowInto(out, phi, &ev.ks)
	return out
}

// GReachIDs returns dense component ids for the G-reachability relation of
// Section 6 (the transitive closure of the union of the G partitions). Two
// worlds are G-reachable from one another iff they share an id. The
// returned slice is a fresh copy.
func (m *Model) GReachIDs(g logic.Group) ([]int, error) {
	agents, err := m.resolveGroup(g)
	if err != nil {
		return nil, err
	}
	var p *partition
	if len(agents) == 0 {
		// No agents: nothing is reachable from anywhere but itself.
		ids := make([]int, m.numWorlds)
		for w := range ids {
			ids[w] = w
		}
		return ids, nil
	}
	ev := m.getEvaluator()
	p = m.reachPartition(ev.t, agents, ev.keyScratch())
	m.putEvaluator(ev)
	out := make([]int, m.numWorlds)
	for w, id := range p.ids {
		out[w] = int(id)
	}
	return out, nil
}

// relIDs returns agent a's class ids and class count in whatever form is
// cheapest: the installed id vector, an already-built partition table, or
// a fresh component labeling of the DSU — never a full table build, since
// callers (Restrict, RefineAgent) need only the ids. Discrete relations
// return (nil, 0) and must be special-cased by the caller.
func (m *Model) relIDs(a int) ([]int32, int) {
	r := &m.rels[a]
	switch {
	case r.ids != nil:
		return r.ids, r.n
	case r.dsu != nil:
		if t := m.derived.Load(); t != nil {
			if p := t.parts[a].Load(); p != nil {
				return p.ids, p.n
			}
		}
		ids := make([]int32, m.numWorlds)
		n := r.dsu.CompIDsInto(ids, nil)
		return ids, n
	default:
		return nil, 0
	}
}

// RefineAgent returns a new model, over the same worlds, in which agent a's
// partition is refined by membership in phi: two worlds remain
// indistinguishable to a only if they were before and phi agrees on them.
// This models a private announcement of φ to agent a — the father taking
// one child aside in Section 3: the child learns whether φ, while the other
// children's knowledge (and the group's common knowledge) is unchanged.
func (m *Model) RefineAgent(a int, phi *bitset.Set) *Model {
	out := NewModel(m.numWorlds, m.numAgents)
	if m.names != nil {
		out.names = append([]string(nil), m.names...)
	}
	for prop, set := range m.valuation {
		out.setFactSet(prop, set.Clone())
	}
	for b := 0; b < m.numAgents; b++ {
		src, n := m.relIDs(b)
		if src == nil {
			continue // discrete stays discrete, refined or not
		}
		if b != a {
			out.rels[b] = agentRel{ids: append([]int32(nil), src...), n: n}
			continue
		}
		// Split agent a's classes by phi: renumber (class, φ-bit) pairs.
		mark := make([]int32, 2*n)
		for i := range mark {
			mark[i] = -1
		}
		ids := make([]int32, m.numWorlds)
		next := int32(0)
		for w := 0; w < m.numWorlds; w++ {
			k := 2 * src[w]
			if phi.Contains(w) {
				k++
			}
			if mark[k] < 0 {
				mark[k] = next
				next++
			}
			ids[w] = mark[k]
		}
		out.rels[a] = agentRel{ids: ids, n: int(next)}
	}
	return out
}

// restrictScratch is the reusable working state of Restrict: the kept-world
// list and the class-renaming mark table. Pooled so announcement chains
// (muddy rounds, attack message chains) recycle one scratch instead of
// reallocating per update.
type restrictScratch struct {
	old  []int
	mark []int32
}

var restrictPool = sync.Pool{New: func() any { return new(restrictScratch) }}

// renumber writes into dst the dense renaming of src's ids gathered over
// the kept worlds, using mark (len >= n, reset here) as scratch, and
// returns the number of surviving classes.
func renumber(dst []int32, src []int32, old []int, mark []int32) int32 {
	for i := range mark {
		mark[i] = -1
	}
	next := int32(0)
	for i, w := range old {
		id := src[w]
		if mark[id] < 0 {
			mark[id] = next
			next++
		}
		dst[i] = mark[id]
	}
	return next
}

// Restrict returns the submodel induced by the given world set (a public
// announcement of "the actual world is in keep"). World w of the new model
// is the i-th element of keep in increasing order. Ground facts and
// indistinguishability are inherited: valuation columns are compacted with
// the word-level gather kernel, per-agent partitions are renamed in one
// pass per agent (sharded across goroutines on large wide models), and any
// memoized joint-view partitions are remapped into the new model —
// restriction commutes with common refinement, so an announcement chain
// inherits its D_G structure instead of recomputing it. The Temporal hook
// is not carried over, since run/time structure generally does not survive
// restriction.
func (m *Model) Restrict(keep *bitset.Set) *Model {
	scr := restrictPool.Get().(*restrictScratch)
	old := scr.old[:0]
	keep.ForEach(func(w int) bool {
		old = append(old, w)
		return true
	})
	scr.old = old
	k := len(old)
	sub := NewModel(k, m.numAgents)

	if m.names != nil {
		sub.names = make([]string, k)
		for i, w := range old {
			sub.names[i] = m.names[w]
		}
	}

	for prop, set := range m.valuation {
		if !set.Intersects(keep) {
			continue
		}
		col := bitset.New(k)
		bitset.Gather(col, set, keep)
		sub.setFactSet(prop, col)
	}

	// Rename each agent's class ids over the surviving worlds and install
	// the resulting partitions directly — no pairwise unions needed. Wide
	// large models shard the per-agent renaming across workers, each with
	// its own mark table.
	if m.numAgents >= parallelPartsMinAgents && k >= parallelPartsMinWorlds && runtime.GOMAXPROCS(0) > 1 {
		m.restrictRelsParallel(sub, old)
	} else {
		for a := 0; a < m.numAgents; a++ {
			src, n := m.relIDs(a)
			if src == nil {
				continue // discrete restricts to discrete
			}
			if cap(scr.mark) < n {
				scr.mark = make([]int32, n)
			}
			subIDs := make([]int32, k)
			next := renumber(subIDs, src, old, scr.mark[:n])
			sub.rels[a] = agentRel{ids: subIDs, n: int(next)}
		}
	}

	m.inheritJointInto(sub, old, scr)
	restrictPool.Put(scr)
	return sub
}

// restrictRelsParallel is the sharded form of the per-agent renaming pass
// of Restrict: agents are striped across workers, one mark table each.
func (m *Model) restrictRelsParallel(sub *Model, old []int) {
	// Resolve id sources serially: relIDs may lazily build partition
	// tables, which takes the model build lock.
	srcs := make([][]int32, m.numAgents)
	ns := make([]int, m.numAgents)
	for a := 0; a < m.numAgents; a++ {
		srcs[a], ns[a] = m.relIDs(a)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > m.numAgents {
		workers = m.numAgents
	}
	var wg sync.WaitGroup
	for off := 0; off < workers; off++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			var mark []int32
			for a := off; a < m.numAgents; a += workers {
				src, n := srcs[a], ns[a]
				if src == nil {
					continue
				}
				if cap(mark) < n {
					mark = make([]int32, n)
				}
				subIDs := make([]int32, len(old))
				next := renumber(subIDs, src, old, mark[:n])
				sub.rels[a] = agentRel{ids: subIDs, n: int(next)}
			}
		}(off)
	}
	wg.Wait()
}

// inheritJointInto remaps every memoized (or still-pending) joint-view
// partition of m onto the restricted model: common refinement commutes
// with restriction, so renaming the class ids over the kept worlds is
// exact. The remapped ids stay pending on the submodel — CSR tables are
// built only if D_G is actually evaluated there.
func (m *Model) inheritJointInto(sub *Model, old []int, scr *restrictScratch) {
	remap := func(key string, ids []int32, n int) {
		if _, ok := sub.inheritedJoint[key]; ok {
			return
		}
		if cap(scr.mark) < n {
			scr.mark = make([]int32, n)
		}
		subIDs := make([]int32, len(old))
		next := renumber(subIDs, ids, old, scr.mark[:n])
		if sub.inheritedJoint == nil {
			sub.inheritedJoint = make(map[string]pendingPart)
		}
		sub.inheritedJoint[key] = pendingPart{ids: subIDs, n: int(next)}
	}
	if t := m.derived.Load(); t != nil {
		t.mu.RLock()
		for key, p := range t.joint {
			remap(key, p.ids, p.n)
		}
		t.mu.RUnlock()
	}
	for key, pp := range m.inheritedJoint {
		remap(key, pp.ids, pp.n)
	}
}
