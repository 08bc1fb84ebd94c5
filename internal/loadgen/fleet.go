package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/hist"
	"repro/internal/server"
)

// RunConfig wires a schedule to live clients.
type RunConfig struct {
	// NewClient builds worker w's client. Each worker gets its own client
	// so breaker state and key sequences never cross workers.
	NewClient func(w int) *client.Client
	// AfterOp, when non-nil, is called after every completed op with the
	// global completed-op count (1-based) and the op. Harnesses hang kill
	// triggers here; the callback runs on the worker's goroutine, so it
	// must be cheap and concurrency-safe.
	AfterOp func(done int, op Op)
	// EvalWorkers is the evaluation worker count eval ops request from the
	// server (the repo's -parallel convention, already resolved through
	// kripke.WorkersFromFlag); 0 accepts the server default.
	EvalWorkers int
	// Pace, when positive, is a per-worker sleep between ops: it stretches
	// a run's wall clock (so soak harnesses can crash the daemon mid-run)
	// without touching the schedule or the records, which stay
	// byte-comparable across paced and unpaced runs of one seed.
	Pace time.Duration
}

// Record is one executed op's comparable outcome: the canonical op line,
// the normalized response payload, and the error if the call failed.
// Latency deliberately lives outside the record, in the histograms, so
// records from two runs of one seed can be compared byte for byte.
type Record struct {
	Line string `json:"line"`
	Body string `json:"body,omitempty"`
	Err  string `json:"err,omitempty"`
}

// Result is one fleet run's outcome.
type Result struct {
	// Records in canonical schedule order (phase A worker-major, then
	// phase B worker-major), independent of runtime interleaving.
	Records []Record
	// Hists are the per-op-type latency histograms, merged across workers
	// in worker order.
	Hists map[OpKind]*hist.Hist
	// Errors counts failed ops.
	Errors int
	// Elapsed is the wall time of the whole run (reporting only).
	Elapsed time.Duration
}

// worker is one fleet member's runtime state.
type worker struct {
	w        int
	c        *client.Client
	sids     map[string]string // logical ID -> server session ID
	opens    []Record
	body     []Record
	hists    map[OpKind]*hist.Hist
	errs     int
	afterOp  func(op Op)
	evalWkrs int
}

func (wk *worker) observe(kind OpKind, d time.Duration) {
	h := wk.hists[kind]
	if h == nil {
		h = &hist.Hist{}
		wk.hists[kind] = h
	}
	h.Observe(d)
}

// exec runs one op against the worker's client and returns its record.
func (wk *worker) exec(op Op) Record {
	rec := Record{Line: op.Encode()}
	start := time.Now()
	body, err := wk.call(op)
	wk.observe(op.Kind, time.Since(start))
	if err != nil {
		rec.Err = err.Error()
		wk.errs++
	} else {
		rec.Body = body
	}
	if wk.afterOp != nil {
		wk.afterOp(op)
	}
	return rec
}

func (wk *worker) call(op Op) (string, error) {
	switch op.Kind {
	case OpOpen:
		st, err := wk.c.Open(op.System, op.Seed)
		if err != nil {
			return "", err
		}
		wk.sids[op.ID()] = st.Session
		return normalizeState(st, op.ID())
	case OpEval:
		sid, err := wk.sid(op)
		if err != nil {
			return "", err
		}
		ev, err := wk.c.Eval(sid, server.EvalRequest{Formulas: op.Formulas, Workers: wk.evalWkrs})
		if err != nil {
			return "", err
		}
		ev.Session = op.ID()
		return marshal(ev)
	case OpAnnounce:
		sid, err := wk.sid(op)
		if err != nil {
			return "", err
		}
		st, err := wk.c.AnnounceAt(sid, op.Formula, op.Link)
		if err != nil {
			return "", err
		}
		return normalizeState(st, op.ID())
	case OpClose:
		sid, err := wk.sid(op)
		if err != nil {
			return "", err
		}
		err = wk.c.Close(sid)
		// A retried close whose original applied lands on a session that
		// no longer exists; across a crash-restart the dedupe window is
		// gone, so the 404 is the already-closed signal, not a failure.
		var apiErr *client.APIError
		if err != nil && !(errors.As(err, &apiErr) && apiErr.Status == 404) {
			return "", err
		}
		return "closed", nil
	}
	return "", fmt.Errorf("loadgen: unknown op kind %q", op.Kind)
}

func (wk *worker) sid(op Op) (string, error) {
	sid, ok := wk.sids[op.ID()]
	if !ok {
		return "", fmt.Errorf("loadgen: session %s was never opened", op.ID())
	}
	return sid, nil
}

// normalizeState replaces the server-assigned session ID with the op's
// logical identity: concurrent opens race for server IDs, so only the
// logical name is stable across runs.
func normalizeState(st server.SessionState, id string) (string, error) {
	st.Session = id
	return marshal(st)
}

func marshal(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Run executes the schedule: phase A opens every session and reaches a
// barrier, phase B drives the session bodies, all workers concurrent
// within each phase.
func (s *Schedule) Run(rc RunConfig) (*Result, error) {
	if rc.NewClient == nil {
		return nil, fmt.Errorf("loadgen: RunConfig.NewClient is required")
	}
	start := time.Now()
	workers := make([]*worker, s.Cfg.Workers)
	var done atomic.Int64
	for w := range workers {
		wk := &worker{
			w:        w,
			c:        rc.NewClient(w),
			sids:     make(map[string]string),
			hists:    make(map[OpKind]*hist.Hist),
			evalWkrs: rc.EvalWorkers,
		}
		if rc.AfterOp != nil {
			wk.afterOp = func(op Op) { rc.AfterOp(int(done.Add(1)), op) }
		}
		workers[w] = wk
	}

	phase := func(pick func(wk *worker) ([]Op, *[]Record)) {
		var wg sync.WaitGroup
		for _, wk := range workers {
			ops, out := pick(wk)
			wg.Add(1)
			go func(wk *worker, ops []Op, out *[]Record) {
				defer wg.Done()
				for _, op := range ops {
					*out = append(*out, wk.exec(op))
					if rc.Pace > 0 {
						time.Sleep(rc.Pace)
					}
				}
			}(wk, ops, out)
		}
		wg.Wait() // the phase-A barrier; phase B reuses the same shape
	}
	phase(func(wk *worker) ([]Op, *[]Record) { return s.Opens[wk.w], &wk.opens })
	phase(func(wk *worker) ([]Op, *[]Record) { return s.Body[wk.w], &wk.body })

	res := &Result{Hists: make(map[OpKind]*hist.Hist), Elapsed: time.Since(start)}
	for _, wk := range workers {
		res.Records = append(res.Records, wk.opens...)
	}
	for _, wk := range workers {
		res.Records = append(res.Records, wk.body...)
		res.Errors += wk.errs
		for kind, h := range wk.hists {
			if res.Hists[kind] == nil {
				res.Hists[kind] = &hist.Hist{}
			}
			res.Hists[kind].Merge(h)
		}
	}
	return res, nil
}
