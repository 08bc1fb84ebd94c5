package kripke

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
)

// Minimize returns the bisimulation quotient of the model: the smallest
// model satisfying exactly the same formulas of the knowledge language at
// corresponding worlds, together with the mapping from old worlds to new.
//
// Point models built from large systems often contain many epistemically
// identical points (e.g. every silent tail of a run); minimizing before
// repeated evaluation can shrink them substantially — see QuotientForEval
// for the batch-evaluation front end. The quotient is computed by partition
// refinement on dense class ids: blocks start as valuation classes (one
// split per fact column) and split until every block has, for every agent,
// the same set of blocks reachable through that agent's view class. All
// bookkeeping is int32 renumbering through counting sorts and reusable
// mark tables — the same columnar machinery the Builder and Restrict use —
// with no maps and no string signatures.
//
// # The block-map contract
//
// The returned slice ("block map") has exactly NumWorlds entries; entry w
// is the quotient world that old world w collapsed to. Every entry is a
// valid world of the quotient — values are dense in [0, q.NumWorlds()) and
// there is no sentinel (no -1, and 0 is an ordinary block id). Blocks are
// numbered by first occurrence: block b's representative — the world
// quotient facts and names are taken from — is the smallest old world w
// with block[w] == b, so block[0] == 0 and each new id exceeds the previous
// maximum by exactly one. Callers may therefore invert the map by a single
// forward scan, and may map any denotation back with set.Contains(block[w]).
//
// The quotient does not preserve the run/time structure, so the Temporal
// hook is not carried over; minimize only models whose formulas are free
// of the run-based operators.
func (m *Model) Minimize() (*Model, []int) {
	if m.numWorlds == 0 {
		return NewModel(0, m.numAgents), []int{}
	}
	r := m.factRefiner()
	r.refine()
	return r.quotient()
}

// refiner is one partition-refinement run over a model: the current block
// ids, the resolved agent relations, and every piece of reusable scratch
// the split and signature passes need. Minimize builds one, refines to
// stability, and materializes the quotient. All interning is by counting
// sorts and mark tables over dense ids; no maps.
type refiner struct {
	m     *Model
	W     int
	block []int32 // block[w] is w's current block id, dense, first-occurrence order
	n     int32   // number of blocks

	rels []minRel // resolved on first use, so a fact split alone stays cheap

	mark    []int32 // renumbering table
	members []int32 // worlds grouped by block, ascending within each block
	boff    []int32 // members[boff[b]:boff[b+1]] are block b's worlds
	cursor  []int32
	coff    []int32 // lists[coff[c]:coff[c+1]] is class c's sorted block list
	lists   []int32
	order   []int32
	sig     []int32
	loc     []int32
}

// minRel is one agent's class ids resolved once per refinement run. A nil
// ids slice is the discrete relation, which never splits anything: the
// blockset of a singleton class is the world's own block, already part of
// the signature.
type minRel struct {
	ids []int32
	n   int
}

// grow returns s resliced to length n, reallocating when its capacity is
// short; the contents are unspecified.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// fill sets every entry of s to v.
func fill(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// factRefiner is a refiner from the trivial one-block partition split by
// every fact column: its blocks are the model's valuation classes.
func (m *Model) factRefiner() *refiner {
	r := &refiner{m: m, W: m.numWorlds, block: make([]int32, m.numWorlds), n: 1}
	r.splitByFacts()
	return r
}

// resolveRels resolves every agent's class ids once per run.
func (r *refiner) resolveRels() {
	if r.rels != nil {
		return
	}
	r.rels = make([]minRel, r.m.numAgents)
	for a := range r.rels {
		ids, cn := r.m.relIDs(a)
		r.rels[a] = minRel{ids, cn}
	}
}

// splitByBit refines the blocks by membership in col: (block, bit) pairs
// are renumbered densely through the mark table.
func (r *refiner) splitByBit(col *bitset.Set) {
	mk := grow(r.mark, 2*int(r.n))
	r.mark = mk
	fill(mk, -1)
	next := int32(0)
	for w := 0; w < r.W; w++ {
		k := 2 * r.block[w]
		if col.Contains(w) {
			k++
		}
		if mk[k] < 0 {
			mk[k] = next
			next++
		}
		r.block[w] = mk[k]
	}
	r.n = next
}

// splitByFacts refines by fact signature, one column at a time (sorted
// fact order keeps the numbering deterministic).
func (r *refiner) splitByFacts() {
	for _, prop := range r.m.Facts() {
		r.splitByBit(r.m.valuation[prop])
	}
}

// groupByBlock counting-sorts the worlds by current block into members,
// ascending within each block.
func (r *refiner) groupByBlock() {
	n := int(r.n)
	r.boff = grow(r.boff, n+1)
	r.cursor = grow(r.cursor, n)
	r.members = grow(r.members, r.W)
	boff, cur := r.boff, r.cursor
	clear(boff)
	for _, b := range r.block {
		boff[b+1]++
	}
	for b := 0; b < n; b++ {
		boff[b+1] += boff[b]
	}
	copy(cur, boff[:n])
	for w, b := range r.block {
		r.members[cur[b]] = int32(w)
		cur[b]++
	}
}

// classSigs groups the worlds by block (see groupByBlock) and assigns every
// class of one agent a signature id of its set of current blocks: equal
// block sets get equal ids. Walking the blocks in order writes each
// class's distinct blocks already sorted, into one flat list; the classes
// are then sorted by list and equal neighbours share an id. It returns the
// per-class ids and their count, which is at most the class count.
func (r *refiner) classSigs(rel minRel) ([]int32, int32) {
	r.groupByBlock()
	cn, n := rel.n, int(r.n)
	ids, boff, members := rel.ids, r.boff, r.members
	r.coff = grow(r.coff, cn+1)
	r.cursor = grow(r.cursor, max(cn, n))
	coff, cur := r.coff, r.cursor[:cn]
	// Count each class's distinct blocks; cur[c] holds the last block
	// counted for class c.
	clear(coff)
	fill(cur, -1)
	for b := int32(0); b < int32(n); b++ {
		for _, w := range members[boff[b]:boff[b+1]] {
			if c := ids[w]; cur[c] != b {
				cur[c] = b
				coff[c+1]++
			}
		}
	}
	for c := 0; c < cn; c++ {
		coff[c+1] += coff[c]
	}
	r.lists = grow(r.lists, int(coff[cn]))
	lists := r.lists
	copy(cur, coff[:cn])
	for b := int32(0); b < int32(n); b++ {
		for _, w := range members[boff[b]:boff[b+1]] {
			if c := ids[w]; cur[c] == coff[c] || lists[cur[c]-1] != b {
				lists[cur[c]] = b
				cur[c]++
			}
		}
	}
	list := func(c int32) []int32 { return lists[coff[c]:coff[c+1]] }
	r.order = grow(r.order, cn)
	order := r.order
	for c := range order {
		order[c] = int32(c)
	}
	slices.SortFunc(order, func(x, y int32) int { return slices.Compare(list(x), list(y)) })
	r.sig = grow(r.sig, cn)
	sg := r.sig
	next := int32(0)
	for i, c := range order {
		if i > 0 && !slices.Equal(list(order[i-1]), list(c)) {
			next++
		}
		sg[c] = next
	}
	return sg, next + 1
}

// splitBySigs refines the blocks by the signature of each world's class.
// Walking the grouping classSigs left behind, each block's distinct
// signatures get consecutive ids, so a pass that splits nothing rewrites
// every id unchanged; a pass that splits renumbers the result by first
// occurrence.
func (r *refiner) splitBySigs(ids, sg []int32, nSig int32) {
	r.loc = grow(r.loc, 2*int(nSig))
	seen, loc := r.loc[:nSig], r.loc[nSig:]
	fill(seen, -1)
	next := int32(0)
	for b := int32(0); b < r.n; b++ {
		for _, w := range r.members[r.boff[b]:r.boff[b+1]] {
			s := sg[ids[w]]
			if seen[s] != b {
				seen[s] = b
				loc[s] = next
				next++
			}
			r.block[w] = loc[s]
		}
	}
	if next == r.n {
		return
	}
	mk := grow(r.mark, int(next))
	r.mark = mk
	fill(mk, -1)
	id := int32(0)
	for w, t := range r.block {
		if mk[t] < 0 {
			mk[t] = id
			id++
		}
		r.block[w] = mk[t]
	}
	r.n = next
}

// refine splits until a full round over all agents splits nothing.
// Refinement only ever splits, so a round that leaves the block count
// unchanged is the fixed point.
func (r *refiner) refine() {
	r.resolveRels()
	for {
		before := r.n
		for _, rel := range r.rels {
			if rel.ids == nil {
				continue
			}
			sg, nSig := r.classSigs(rel)
			r.splitBySigs(rel.ids, sg, nSig)
		}
		if r.n == before {
			break
		}
	}
}

// quotient materializes the model of the current block partition, which
// must be stable (refine has run, or the blocks are a known bisimulation).
// rep[b] is the smallest world of block b (blocks are numbered by first
// occurrence, so a forward scan fills it).
func (r *refiner) quotient() (*Model, []int) {
	m, W := r.m, r.W
	nB := int(r.n)
	r.resolveRels()
	rep := make([]int32, nB)
	fill(rep, -1)
	for w := 0; w < W; w++ {
		if rep[r.block[w]] < 0 {
			rep[r.block[w]] = int32(w)
		}
	}
	q := NewModel(nB, m.numAgents)
	for prop, set := range m.valuation {
		col := bitset.New(nB)
		for b := 0; b < nB; b++ {
			if set.Contains(int(rep[b])) {
				col.Add(b)
			}
		}
		q.setFactSet(prop, col)
	}
	// Quotient relations: in the stable partition, all members of a block
	// see the same set of blocks through an agent's classes, and any two
	// classes sharing a block have equal block sets — so "same block-set
	// id at the representative's class" is exactly the quotient partition,
	// installed as dense ids with no union-find.
	for a, rel := range r.rels {
		if rel.ids == nil {
			continue // discrete stays discrete
		}
		sg, nSig := r.classSigs(rel)
		mk := grow(r.mark, int(nSig))
		r.mark = mk
		fill(mk, -1)
		qids := make([]int32, nB)
		next := int32(0)
		for b := 0; b < nB; b++ {
			s := sg[rel.ids[rep[b]]]
			if mk[s] < 0 {
				mk[s] = next
				next++
			}
			qids[b] = mk[s]
		}
		q.setPartition(a, qids, int(next))
	}
	for b := 0; b < nB; b++ {
		q.SetName(b, fmt.Sprintf("b%d<%s>", b, m.Name(int(rep[b]))))
	}
	outBlock := make([]int, W)
	for w := 0; w < W; w++ {
		outBlock[w] = int(r.block[w])
	}
	return q, outBlock
}
