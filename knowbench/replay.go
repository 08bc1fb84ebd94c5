package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/logic"
	"repro/internal/server"
)

// replayOp is one client op of the traced run, kept so the kernel replay
// can repeat its work against the public kernel calls.
type replayOp struct {
	kind     opKind
	sess     string // logical session identity
	spec     string // open: system spec
	seed     int64  // open: session seed
	formulas []string
	req      string // request id of the served call
}

// replayer repeats a traced op stream against the kernel, on systems
// built the way knowd builds them, timing each public call as a span.
type replayer struct {
	tr       *tracer
	sessions map[string]*refSystem

	restricts int
	allocs    uint64
	ratioSum  float64
	// muddy8 lists the replay.eval spans of evals on eval-warm's muddy:8
	// resident, for the sanity line.
	muddy8 []int32
}

// heapAllocs reads the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (rp *replayer) open(key, spec string, seed int64, req string) error {
	p := rp.tr.begin("replay.open", -1, req)
	defer rp.tr.end(p)
	rs, err := buildRef(spec, seed)
	if err != nil {
		return err
	}
	name := "system.build"
	switch {
	case strings.HasPrefix(spec, "muddy:"):
		name = "muddy.build"
	case strings.HasPrefix(spec, "scenario:"):
		name = "scenario.build"
	}
	rp.tr.record(name, p, req, rs.t0, rs.t1)
	rp.tr.record("kripke.quotient_build", p, req, rs.t1, rs.t2)
	rp.sessions[key] = rs
	return nil
}

// decode times encoding/json decoding v's wire bytes the way knowd's
// decodeBody does.
func (rp *replayer) decode(name string, parent int32, req string, v, into any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	t0 := time.Now()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(into)
	rp.tr.record(name, parent, req, t0, time.Now())
	return err
}

func (rp *replayer) parse(srcs []string, parent int32, req string) ([]logic.Formula, error) {
	fs := make([]logic.Formula, len(srcs))
	for i, src := range srcs {
		t0 := time.Now()
		f, err := logic.Parse(src)
		rp.tr.record("logic.parse", parent, req, t0, time.Now())
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return fs, nil
}

func (rp *replayer) eval(rs *refSystem, srcs []string, req string) error {
	p := rp.tr.begin("replay.eval", -1, req)
	defer rp.tr.end(p)
	if rs.spec == "muddy:8" && rs.link == 0 {
		rp.muddy8 = append(rp.muddy8, p)
	}
	var in server.EvalRequest
	if err := rp.decode("json.decode.eval", p, req, server.EvalRequest{Formulas: srcs}, &in); err != nil {
		return err
	}
	fs, err := rp.parse(in.Formulas, p, req)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sets, err := rs.evalBatch(fs)
	rp.tr.record("kripke.evalbatch", p, req, t0, time.Now())
	if err != nil {
		return err
	}
	resp := server.EvalResponse{Link: rs.link, Verdicts: make([]server.Verdict, len(sets))}
	for i, set := range sets {
		v := server.Verdict{Formula: srcs[i], Count: set.Count()}
		if rs.marked >= 0 {
			holds := set.Contains(rs.marked)
			v.Marked = &holds
		}
		resp.Verdicts[i] = v
	}
	t0 = time.Now()
	err = json.NewEncoder(io.Discard).Encode(resp)
	rp.tr.record("json.encode.eval", p, req, t0, time.Now())
	return err
}

// announce mirrors knowd's session.announce: evaluate, track the marked
// world by rank, restrict the quotiented view.
func (rp *replayer) announce(rs *refSystem, src string, req string) error {
	p := rp.tr.begin("replay.announce", -1, req)
	defer rp.tr.end(p)
	link := rs.link
	var in server.AnnounceRequest
	if err := rp.decode("json.decode.announce", p, req, server.AnnounceRequest{Formula: src, Link: &link}, &in); err != nil {
		return err
	}
	fs, err := rp.parse([]string{in.Formula}, p, req)
	if err != nil {
		return err
	}
	t0 := time.Now()
	keep, err := rs.view.Eval(fs[0])
	rp.tr.record("kripke.announce_eval", p, req, t0, time.Now())
	if err != nil {
		return err
	}
	if keep.IsEmpty() {
		return fmt.Errorf("replayed announcement %q is inconsistent", src)
	}
	if rs.marked >= 0 {
		if keep.Contains(rs.marked) {
			rs.marked = keep.Rank(rs.marked)
		} else {
			rs.marked = -1
		}
	}
	a0 := heapAllocs()
	t0 = time.Now()
	rs.view = rs.view.Restrict(keep, 1)
	t1 := time.Now()
	rp.allocs += heapAllocs() - a0
	rp.tr.record("kripke.restrict", p, req, t0, t1)
	rp.restricts++
	rp.ratioSum += float64(rs.view.QuotientWorlds()) / float64(rs.view.NumWorlds())
	rs.link++
	return nil
}

// run replays ops in order until budget is spent. Residents are built
// first, under their spec as the session key.
func (rp *replayer) run(ops []replayOp, residents []*resident, budget time.Duration) (int, error) {
	start := time.Now()
	for _, r := range residents {
		if _, ok := rp.sessions[r.spec]; !ok {
			if err := rp.open(r.spec, r.spec, r.seed, ""); err != nil {
				return 0, err
			}
		}
	}
	done := 0
	for _, op := range ops {
		if time.Since(start) > budget {
			break
		}
		var err error
		switch op.kind {
		case kOpen:
			err = rp.open(op.sess, op.spec, op.seed, op.req)
		case kClose:
			delete(rp.sessions, op.sess)
		default:
			rs := rp.sessions[op.sess]
			if rs == nil {
				return done, fmt.Errorf("replay: %s on unknown session %s", op.kind, op.sess)
			}
			if op.kind == kEval {
				err = rp.eval(rs, op.formulas, op.req)
			} else {
				err = rp.announce(rs, op.formulas[0], op.req)
			}
		}
		if err != nil {
			return done, fmt.Errorf("replay: %w", err)
		}
		done++
	}
	return done, nil
}
