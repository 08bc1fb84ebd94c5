package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// Sub-stream labels: every draw the benchmark makes comes off
// faults.SubStream(seed, label, ...), so one seed gives one input set
// however the client goroutines interleave.
const (
	labelEvalWarm = 0xbe00 + iota
	labelLadder
	labelOL
	labelRounds
)

// residentSeed fixes the resident sessions' systems (scenario fault
// sampling, the routed population) on every run: the workload seed varies
// the op stream only, so the run-to-run spread is not a spread of system
// sizes.
const residentSeed = 1

// workload is one traffic mix over one serving stack.
type workload interface {
	name() string
	stackConfig() stackConfig
	// prepare computes the reference answers. It runs once, before the
	// timed set-up, with direct kernel calls.
	prepare() error
	// setup opens the resident sessions and warms the stack up.
	setup(st *stack) error
	// closed drives client w's share of the closed loop until deadline.
	closed(w int, c *client.Client, rec *recorder, deadline time.Time)
	// olRate is the fixed open-loop offered rate, req/s: high enough that
	// the process stays busy and the figure is not idle wake-ups, low
	// enough (a third or less of what two senders sustain on the stack)
	// that a slow phase of the host does not tip it into saturation.
	olRate() float64
	// olEval sends open-loop eval i and checks its verdicts.
	olEval(c *client.Client, i int) error
	// verify runs the post-run correctness check, if the workload has one
	// beyond per-answer checks.
	verify() (wrong int, err error)
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "eval-warm":
		return &evalWarm{seed: seed}, nil
	case "announce-ladder":
		return &announceLadder{seed: seed}, nil
	case "routed-durable":
		return &routedDurable{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want eval-warm, announce-ladder or routed-durable)", name)
}

// Muddy-children formulas, as loadgen writes them.

func muddyFather(n int) string { return joinTerms(n, " | ", "muddy%[1]d") }

func muddyNobody(n int) string {
	return joinTerms(n, " & ", "~(K%[1]d muddy%[1]d | K%[1]d ~muddy%[1]d)")
}

func muddyEveryoneKnows(n int) string { return joinTerms(n, " & ", "K%[1]d muddy%[1]d") }

func joinTerms(n int, sep, format string) string {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf(format, i)
	}
	return strings.Join(terms, sep)
}

// poolFor is the formula pool evaluated on a session of spec: the
// knowledge tower on the system's own facts, plus the temporal C^eps and
// C^<> on the runs-based systems (served at link zero).
func poolFor(spec string) []string {
	switch {
	case strings.HasPrefix(spec, "muddy:"):
		var n int
		fmt.Sscanf(spec, "muddy:%d", &n)
		return []string{
			"muddy0", "K0 muddy1", "K1 muddy1", "E muddy0", "D muddy0",
			"C (" + muddyFather(n) + ")", "E (" + muddyFather(n) + ")",
			muddyNobody(n), muddyEveryoneKnows(n),
		}
	case spec == "attack":
		return []string{"del1", "K0 del1", "K1 del1", "E del1", "C del1", "Ce[1] del1", "Cv del1"}
	default: // r2d2 and the scenario regimes
		return []string{"sent", "K0 sent", "K1 sent", "E sent", "D sent", "C sent", "Ce[1] sent", "Cv sent"}
	}
}

// resident is a session opened in set-up and kept for the whole run.
type resident struct {
	spec string
	seed int64
	pool []string
	ref  []verdict // reference verdict per pool formula, at link 0
	sid  string
	// Expected open state.
	worlds, quotient, marked int
}

func (r *resident) prepare() error {
	rs, err := buildRef(r.spec, r.seed)
	if err != nil {
		return err
	}
	r.pool = poolFor(r.spec)
	if r.ref, err = rs.refVerdicts(r.pool); err != nil {
		return fmt.Errorf("reference for %s: %w", r.spec, err)
	}
	r.worlds, r.quotient, r.marked = rs.view.NumWorlds(), rs.view.QuotientWorlds(), rs.marked
	return nil
}

// open opens the resident and checks the session's initial state.
func (r *resident) open(c *client.Client) error {
	st, err := c.Open(r.spec, r.seed)
	if err != nil {
		return fmt.Errorf("open %s: %w", r.spec, err)
	}
	if st.Link != 0 || st.Worlds != r.worlds || st.Quotient != r.quotient || st.Marked != r.marked {
		return wrongf("open %s: state %+v, want worlds %d quotient %d marked %d", r.spec, st, r.worlds, r.quotient, r.marked)
	}
	r.sid = st.Session
	return nil
}

// evalOp is one drawn eval batch on a resident.
type evalOp struct {
	res  int
	idx  []int // pool indices
	srcs []string
}

// drawEval draws a batch of 1-8 formulas on a uniformly drawn resident.
func drawEval(s *faults.Stream, residents []*resident) evalOp {
	op := evalOp{res: s.Intn(len(residents))}
	r := residents[op.res]
	k := 1 + s.Intn(8)
	for j := 0; j < k; j++ {
		i := s.Intn(len(r.pool))
		op.idx = append(op.idx, i)
		op.srcs = append(op.srcs, r.pool[i])
	}
	return op
}

// sendEval sends op and checks each verdict against the reference.
func sendEval(c *client.Client, residents []*resident, op evalOp) error {
	r := residents[op.res]
	resp, err := c.Eval(r.sid, server.EvalRequest{Formulas: op.srcs})
	if err != nil {
		return err
	}
	if resp.Link != 0 || len(resp.Verdicts) != len(op.idx) {
		return wrongf("eval on %s: link %d, %d verdicts for %d formulas", r.spec, resp.Link, len(resp.Verdicts), len(op.idx))
	}
	for j, v := range resp.Verdicts {
		want := r.ref[op.idx[j]]
		got := verdict{count: v.Count, marked: -1}
		if v.Marked != nil {
			got.marked = 0
			if *v.Marked {
				got.marked = 1
			}
		}
		if v.Formula != op.srcs[j] || got != want {
			return wrongf("eval %q on %s: got %+v, want %+v", op.srcs[j], r.spec, got, want)
		}
	}
	return nil
}

func openResidents(st *stack, residents []*resident) error {
	c := st.clients(1, 1, nil)[0]
	for _, r := range residents {
		if err := r.open(c); err != nil {
			return err
		}
	}
	return nil
}

// warmEvals sends n seeded evals over the residents from two clients.
func warmEvals(st *stack, residents []*resident, seed int64, n int) error {
	cs := st.clients(2, seed, nil)
	errs := make([]error, len(cs))
	closedLoop(cs, []*recorder{{}, {}}, func(w int, c *client.Client, _ *recorder) {
		for i := 0; i < n/len(cs) && errs[w] == nil; i++ {
			errs[w] = sendEval(c, residents, drawEval(faults.SubStream(seed, labelOL, 1<<32+uint64(w), uint64(i)), residents))
		}
	})
	return errors.Join(errs...)
}

// ladderScript opens muddy:n, runs the father's announcement and the n-1
// "nobody knows" rounds with link preconditions, evaluates "everyone knows
// they are muddy" and closes. Every answer is checked against the
// puzzle's theory: after link L the surviving worlds are those with more
// than L muddy children, and after the full ladder only the actual world
// remains, where everyone knows.
func ladderScript(c *client.Client, rec *recorder, n int, key string) {
	spec := fmt.Sprintf("muddy:%d", n)
	var sid string
	if !rec.do(kOpen, func() error {
		st, err := c.Open(spec, 0)
		if err != nil {
			return err
		}
		if st.Link != 0 || st.Worlds != 1<<n || st.Marked < 0 {
			return wrongf("open %s: %+v", spec, st)
		}
		sid = st.Session
		return nil
	}) {
		return
	}
	rec.log(replayOp{kind: kOpen, sess: key, spec: spec})
	ok := true
	for link := 0; link < n && ok; link++ {
		f := muddyNobody(n)
		if link == 0 {
			f = muddyFather(n)
		}
		ok = rec.do(kAnnounce, func() error {
			st, err := c.AnnounceAt(sid, f, link)
			if err != nil {
				return err
			}
			if want := worldsAbove(n, link); st.Link != link+1 || st.Worlds != want || st.Marked < 0 {
				return wrongf("announce link %d on %s: %+v, want link %d worlds %d", link, spec, st, link+1, want)
			}
			return nil
		})
		rec.log(replayOp{kind: kAnnounce, sess: key, formulas: []string{f}})
	}
	if ok {
		ek := muddyEveryoneKnows(n)
		rec.do(kEval, func() error {
			resp, err := c.Eval(sid, server.EvalRequest{Formulas: []string{ek}})
			if err != nil {
				return err
			}
			if resp.Link != n || len(resp.Verdicts) != 1 || resp.Verdicts[0].Marked == nil ||
				!*resp.Verdicts[0].Marked || resp.Verdicts[0].Count != 1 {
				return wrongf("everyone-knows on %s at link %d: %+v", spec, resp.Link, resp.Verdicts)
			}
			return nil
		})
		rec.log(replayOp{kind: kEval, sess: key, formulas: []string{ek}})
	}
	rec.do(kClose, func() error { return c.Close(sid) })
	rec.log(replayOp{kind: kClose, sess: key})
}

// worldsAbove counts the muddy:n worlds with more than link muddy
// children: the sum of C(n, j) over j > link.
func worldsAbove(n, link int) int {
	sum, c := 0, 1 // c = C(n, j)
	for j := 0; j <= n; j++ {
		if j > link {
			sum += c
		}
		c = c * (n - j) / (j + 1)
	}
	return sum
}

// eval-warm: the read path.

type evalWarm struct {
	seed      int64
	residents []*resident
	// next and lifeNext are each client's next op and lifecycle index, so
	// a loop cut into segments goes on where the last segment stopped.
	next, lifeNext [2]int
}

func (*evalWarm) name() string { return "eval-warm" }

func (*evalWarm) stackConfig() stackConfig { return stackConfig{} }

func (e *evalWarm) prepare() error {
	specs := []string{"muddy:8", "scenario:sync-fixed", "scenario:bounded", "scenario:lossy",
		"scenario:dup", "scenario:drift-within", "r2d2", "attack"}
	for _, spec := range specs {
		r := &resident{spec: spec, seed: residentSeed}
		if err := r.prepare(); err != nil {
			return err
		}
		e.residents = append(e.residents, r)
	}
	return nil
}

func (e *evalWarm) setup(st *stack) error {
	if err := openResidents(st, e.residents); err != nil {
		return err
	}
	return warmEvals(st, e.residents, e.seed, 400)
}

func (e *evalWarm) closed(w int, c *client.Client, rec *recorder, deadline time.Time) {
	for ; time.Now().Before(deadline); e.next[w]++ {
		op := drawEval(faults.SubStream(e.seed, labelEvalWarm, uint64(w), uint64(e.next[w])), e.residents)
		rec.do(kEval, func() error { return sendEval(c, e.residents, op) })
		rec.log(replayOp{kind: kEval, sess: e.residents[op.res].spec, formulas: op.srcs})
	}
}

// lifecycle runs light muddy:4 ladder scripts, so eval-warm also reports
// open and announce latencies on a stack whose kernel work is small. One
// size keeps the latency distributions single-peaked, so their medians do
// not jump between the peaks of a size mix.
func (e *evalWarm) lifecycle(w int, c *client.Client, rec *recorder, deadline time.Time) {
	for ; time.Now().Before(deadline); e.lifeNext[w]++ {
		ladderScript(c, rec, 4, fmt.Sprintf("l%d.%d", w, e.lifeNext[w]))
	}
}

func (*evalWarm) olRate() float64 { return 3000 }

func (e *evalWarm) olEval(c *client.Client, i int) error {
	return sendEval(c, e.residents, drawEval(faults.SubStream(e.seed, labelOL, uint64(i)), e.residents))
}

func (*evalWarm) verify() (int, error) { return 0, nil }

// announce-ladder: the kernel's Restrict/Minimize and the system build.

type announceLadder struct {
	seed      int64
	residents []*resident
	next      [2]int // each client's next script, as evalWarm.next
}

func (*announceLadder) name() string { return "announce-ladder" }

func (*announceLadder) stackConfig() stackConfig { return stackConfig{} }

// prepare sets up the open loop's target: one muddy:8 resident at link 0.
// A muddy:10 resident's common-knowledge evals queue the open loop behind
// them, and its p99 then varied several-fold from run to run.
func (a *announceLadder) prepare() error {
	r := &resident{spec: "muddy:8", seed: residentSeed}
	a.residents = []*resident{r}
	return r.prepare()
}

func (a *announceLadder) setup(st *stack) error {
	if err := openResidents(st, a.residents); err != nil {
		return err
	}
	cs := st.clients(2, a.seed, nil)
	recs := []*recorder{{}, {}}
	closedLoop(cs, recs, func(w int, c *client.Client, rec *recorder) {
		ladderScript(c, rec, 8+w, fmt.Sprintf("warm%d", w))
	})
	for _, r := range recs {
		if r.failed > 0 {
			return fmt.Errorf("warm-up ladder failed: %v", r.errs)
		}
	}
	return nil
}

// ladderN draws script j's muddy size for client w: each block of three
// scripts runs N = 8, 9 and 10 once each, in a seeded order, so every run
// offers the same size mix.
func (a *announceLadder) ladderN(w, j int) int {
	s := faults.SubStream(a.seed, labelLadder, uint64(w), uint64(j/3))
	perm := []int{8, 9, 10}
	for i := len(perm) - 1; i > 0; i-- {
		k := s.Intn(i + 1)
		perm[i], perm[k] = perm[k], perm[i]
	}
	return perm[j%3]
}

func (a *announceLadder) closed(w int, c *client.Client, rec *recorder, deadline time.Time) {
	for ; time.Now().Before(deadline); a.next[w]++ {
		j := a.next[w]
		ladderScript(c, rec, a.ladderN(w, j), fmt.Sprintf("w%dj%d", w, j))
	}
}

func (*announceLadder) olRate() float64 { return 2000 }

func (a *announceLadder) olEval(c *client.Client, i int) error {
	return sendEval(c, a.residents, drawEval(faults.SubStream(a.seed, labelOL, uint64(i)), a.residents))
}

func (*announceLadder) verify() (int, error) { return 0, nil }

// routed-durable: the router hop and the synchronous standby. Its knowds
// run without -write-through: the rewrite of sessions.json on every
// mutation made the workload's figures depend on the host's disk more
// than on the program (README.md), so persistence is timed per layer
// instead (server.persist_ms in the traced run).

// residentCount is routed-durable's idle session population.
const residentCount = 100

// roundScripts is how many session scripts one loadgen schedule round
// holds per client; rounds are built as the closed loop needs them.
const roundScripts = 64

type routedDurable struct {
	seed      int64
	residents []*resident // the open-loop eval targets among the population
	all       []loadgen.Op
	// executed[w] counts client w's completed session scripts. sums[w]
	// is a running hash of their records, opens in [0] and bodies in [1],
	// the order loadgen reports them in. It keeps the comparison
	// byte-exact while no per-op data stays in the heap that heap_live_mb
	// measures.
	executed []int
	sums     [][2]*recordSum
}

// recordSum is a running SHA-256 over a sequence of records, each field
// length-prefixed so that no two sequences hash the same bytes.
type recordSum struct {
	h hash.Hash
	n int
}

func newRecordSum() *recordSum { return &recordSum{h: sha256.New()} }

func (s *recordSum) add(rec loadgen.Record) {
	for _, f := range []string{rec.Line, rec.Body, rec.Err} {
		s.h.Write(binary.AppendUvarint(nil, uint64(len(f))))
		io.WriteString(s.h, f)
	}
	s.n++
}

func (s *recordSum) sum() []byte { return s.h.Sum(nil) }

func (*routedDurable) name() string { return "routed-durable" }

func (*routedDurable) stackConfig() stackConfig { return stackConfig{routed: true} }

func (r *routedDurable) prepare() error {
	// The idle population is loadgen's light muddy:2-4 sessions. The
	// router maps them and the standby holds their copies; in the traced
	// run, SaveSessions writes all of them, a few hundred bytes each.
	pop := loadgen.Build(loadgen.Config{Seed: residentSeed, Workers: 1, Sessions: residentCount, Mix: loadgen.Mix{Muddy: 1}})
	r.all = pop.Opens[0]
	// Eight residents spread over the population serve the open loop.
	for i := 0; i < 8; i++ {
		op := r.all[i*len(r.all)/8]
		res := &resident{spec: op.System, seed: op.Seed}
		if err := res.prepare(); err != nil {
			return err
		}
		r.residents = append(r.residents, res)
	}
	return nil
}

// roundConfig is the loadgen schedule of round k: the default mix, every
// session closed at the end of its script.
func (r *routedDurable) roundConfig(k int) loadgen.Config {
	seed := int64(faults.SubStream(r.seed, labelRounds, uint64(k)).Uint64()>>1) | 1
	return loadgen.Config{Seed: seed, Workers: 2, Sessions: roundScripts, CloseProb: 1}
}

// scripts returns client w's session scripts of round k, each its open
// then its body, renumbered so script j of the run is session j.
func (r *routedDurable) scripts(w, k int) [][]loadgen.Op {
	sc := loadgen.Build(r.roundConfig(k))
	out := make([][]loadgen.Op, roundScripts)
	renumber := func(op loadgen.Op) loadgen.Op {
		op.Session += k * roundScripts
		return op
	}
	for i, op := range sc.Opens[w] {
		out[i] = []loadgen.Op{renumber(op)}
	}
	for _, op := range sc.Body[w] {
		out[op.Session] = append(out[op.Session], renumber(op))
	}
	return out
}

func (r *routedDurable) setup(st *stack) error {
	c := st.clients(1, 1, nil)[0]
	sampled := 0
	for i, op := range r.all {
		if sampled < len(r.residents) && i == sampled*len(r.all)/8 {
			if err := r.residents[sampled].open(c); err != nil {
				return err
			}
			sampled++
			continue
		}
		s, err := c.Open(op.System, op.Seed)
		if err != nil {
			return fmt.Errorf("open resident %s: %w", op.System, err)
		}
		if s.Link != 0 {
			return wrongf("resident %s opened at link %d", op.System, s.Link)
		}
	}
	r.executed = make([]int, 2)
	r.sums = make([][2]*recordSum, 2)
	for w := range r.sums {
		r.sums[w] = [2]*recordSum{newRecordSum(), newRecordSum()}
	}
	return warmEvals(st, r.residents, r.seed, 100)
}

func (r *routedDurable) closed(w int, c *client.Client, rec *recorder, deadline time.Time) {
	sids := make(map[string]string)
	var round [][]loadgen.Op
	for j := r.executed[w]; time.Now().Before(deadline); j++ {
		if round == nil || j%roundScripts == 0 {
			round = r.scripts(w, j/roundScripts)
		}
		for i, op := range round[j%roundScripts] {
			var out loadgen.Record
			rec.do(opKindOf(op.Kind), func() error {
				out = execOp(c, op, sids)
				if out.Err != "" {
					return errors.New(out.Err)
				}
				return nil
			})
			part := 1
			if i == 0 {
				part = 0
			}
			r.sums[w][part].add(out)
			fs := op.Formulas
			if op.Kind == loadgen.OpAnnounce {
				fs = []string{op.Formula}
			}
			rec.log(replayOp{kind: opKindOf(op.Kind), sess: op.ID(), spec: op.System, seed: op.Seed, formulas: fs})
		}
		r.executed[w] = j + 1
	}
}

func opKindOf(k loadgen.OpKind) opKind {
	switch k {
	case loadgen.OpOpen:
		return kOpen
	case loadgen.OpEval:
		return kEval
	case loadgen.OpAnnounce:
		return kAnnounce
	}
	return kClose
}

// execOp runs one loadgen op and renders its record exactly as loadgen's
// own fleet does, so the two can be compared byte for byte.
func execOp(c *client.Client, op loadgen.Op, sids map[string]string) loadgen.Record {
	rec := loadgen.Record{Line: op.Encode()}
	var v any
	var err error
	switch op.Kind {
	case loadgen.OpOpen:
		var st server.SessionState
		if st, err = c.Open(op.System, op.Seed); err == nil {
			sids[op.ID()] = st.Session
			st.Session = op.ID()
			v = st
		}
	case loadgen.OpEval:
		var ev server.EvalResponse
		if ev, err = c.Eval(sids[op.ID()], server.EvalRequest{Formulas: op.Formulas}); err == nil {
			ev.Session = op.ID()
			v = ev
		}
	case loadgen.OpAnnounce:
		var st server.SessionState
		if st, err = c.AnnounceAt(sids[op.ID()], op.Formula, op.Link); err == nil {
			st.Session = op.ID()
			v = st
		}
	case loadgen.OpClose:
		err = c.Close(sids[op.ID()])
		delete(sids, op.ID())
		rec.Body = "closed"
	}
	if err != nil {
		rec.Err = err.Error()
		rec.Body = ""
		return rec
	}
	if v != nil {
		data, merr := json.Marshal(v)
		if merr != nil {
			rec.Err = merr.Error()
			return rec
		}
		rec.Body = string(data)
	}
	return rec
}

func (*routedDurable) olRate() float64 { return 1500 }

func (r *routedDurable) olEval(c *client.Client, i int) error {
	return sendEval(c, r.residents, drawEval(faults.SubStream(r.seed, labelOL, uint64(i)), r.residents))
}

// verify replays the executed scripts through loadgen's own fleet against
// one direct knowd, hashes its records the way the routed run did, and
// counts the worker-part sums (opens or bodies of one client) that differ.
func (r *routedDurable) verify() (int, error) {
	sched := &loadgen.Schedule{Cfg: r.roundConfig(0), Opens: make([][]loadgen.Op, 2), Body: make([][]loadgen.Op, 2)}
	for w := range r.executed {
		for k := 0; k*roundScripts < r.executed[w]; k++ {
			for j, script := range r.scripts(w, k) {
				if k*roundScripts+j >= r.executed[w] {
					break
				}
				sched.Opens[w] = append(sched.Opens[w], script[0])
				sched.Body[w] = append(sched.Body[w], script[1:]...)
			}
		}
	}
	st, err := startStack(stackConfig{})
	if err != nil {
		return 0, err
	}
	res, err := sched.Run(loadgen.RunConfig{NewClient: func(w int) *client.Client {
		return st.clients(1, int64(w)+1, nil)[0]
	}})
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	// loadgen reports every client's opens, then every client's bodies.
	recs := res.Records
	wrong := 0
	for part, ops := range [2][][]loadgen.Op{sched.Opens, sched.Body} {
		for w := range ops {
			n := min(len(ops[w]), len(recs))
			want := newRecordSum()
			for _, rec := range recs[:n] {
				want.add(rec)
			}
			recs = recs[n:]
			got := r.sums[w][part]
			if got.n != want.n || !bytes.Equal(got.sum(), want.sum()) {
				if wrong == 0 {
					err = wrongf("client %d's %s: the hash over its %d records differs from the single-knowd reference's over %d",
						w, [2]string{"opens", "bodies"}[part], got.n, want.n)
				}
				wrong++
			}
		}
	}
	if len(recs) != 0 && wrong == 0 {
		err = wrongf("the single-knowd reference has %d records more than the routed run", len(recs))
		wrong++
	}
	return wrong, err
}
