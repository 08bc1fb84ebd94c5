package main

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// opKind indexes the client-visible op classes.
type opKind int

const (
	kOpen opKind = iota
	kEval
	kAnnounce
	kClose
	numKinds
)

var kindNames = [numKinds]string{"open", "eval", "announce", "close"}

func (k opKind) String() string { return kindNames[k] }

// errWrong marks an answer that disagrees with the benchmark's reference.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// recorder is one client goroutine's tally: latencies per op kind, ops
// attempted and failed, and — in the traced run — the op stream for the
// kernel replay. Each goroutine owns its recorder; merge combines them
// after the goroutines have returned.
type recorder struct {
	lat       [numKinds][]sample
	attempted int
	failed    int
	wrong     int
	errs      []string

	wt  *workerTrace // nil in the untraced run
	ops []replayOp   // kept only when wt != nil
}

// do runs one client call, timing it and counting its outcome.
func (r *recorder) do(kind opKind, call func() error) bool {
	var sp int32 = -1
	if r.wt != nil {
		sp = r.wt.begin(kind)
	}
	t0 := time.Now()
	err := call()
	t1 := time.Now()
	if sp >= 0 {
		r.wt.end(sp)
	}
	r.attempted++
	if err != nil {
		r.failed++
		if errors.Is(err, errWrong) {
			r.wrong++
		}
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", kind, err))
		}
		return false
	}
	r.lat[kind] = append(r.lat[kind], sample{at: t1.Sub(epoch), d: t1.Sub(t0)})
	return true
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	for _, e := range o.errs {
		if len(r.errs) < 10 {
			r.errs = append(r.errs, e)
		}
	}
	r.ops = append(r.ops, o.ops...)
}

// completed is the number of ops that succeeded.
func (r *recorder) completed() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// log keeps op for the kernel replay while tracing is on, tagged with the
// request id of the client call just made.
func (r *recorder) log(op replayOp) {
	if r.wt == nil || !r.wt.t.on.Load() {
		return
	}
	op.req = r.wt.req
	r.ops = append(r.ops, op)
}

// epoch is the zero of sample timestamps.
var epoch = time.Now()

// sample is one completed op: when it completed (since epoch) and how long
// it took. It holds no pointers, so the garbage collector never scans the
// benchmark's sample slices.
type sample struct {
	at, d time.Duration
}

// Chunk sizes for the windowed statistics: a p99 needs ten samples beyond
// it, a median is steady well before that.
const (
	p99Chunk = 1000
	p50Chunk = 250
)

// chunked takes the q-quantile over windows of size consecutive samples,
// in completion order, and returns the median over windows with the
// window count. Windows start every size/2 samples (closer when that
// leaves fewer than three), so a burst of load from outside the process
// lands in a minority of windows and moves the median over windows far
// less than the quantile of the pooled samples. With fewer than size
// samples the one window is all of them.
func chunked(samples []sample, size int, q float64) (time.Duration, int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := slices.Clone(samples)
	slices.SortFunc(s, func(a, b sample) int { return cmp.Compare(a.at, b.at) })
	if len(s) <= size {
		return quantile(durations(s), q), 1
	}
	stride := min(size/2, max((len(s)-size)/2, 1))
	var vals []time.Duration
	for lo := 0; lo+size <= len(s); lo += stride {
		vals = append(vals, quantile(durations(s[lo:lo+size]), q))
	}
	return quantile(vals, 0.5), len(vals)
}

func durations(s []sample) []time.Duration {
	ds := make([]time.Duration, len(s))
	for i := range s {
		ds[i] = s[i].d
	}
	return ds
}

// quantile returns the q-quantile of ds by nearest rank, sorting ds.
func quantile[T cmp.Ordered](ds []T, q float64) T {
	if len(ds) == 0 {
		var zero T
		return zero
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// closedLoop runs body on nclients goroutines until every body returns and
// reports the wall time. Each body gets its own client and recorder and
// stops starting new work at deadline.
func closedLoop(clients []*client.Client, recs []*recorder, body func(w int, c *client.Client, rec *recorder)) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, clients[w], recs[w])
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

// olResult is one open-loop phase at a fixed offered rate. A late request's
// latency is timed from its scheduled send time, so a stall also charges
// the requests queued behind it; an early one's from its send. lag is how
// late each request was sent.
type olResult struct {
	due      []time.Time
	lat, lag []time.Duration
	sent     int
	failed   int
	wrong    int
	tailLag  time.Duration // mean lag over the last tenth of requests
	errs     []string
}

// timerSlack is how late the Go runtime's timers can fire on an idle
// Linux host: the netpoller sleeps in whole milliseconds, so a 100 µs sleep
// takes about 1.1 ms. The generator sleeps only to within this of a
// request's due time and then releases it, early rather than late. At
// the workloads' fixed rates this lead spans 2-4 request gaps, so a stall
// shorter than it is not charged to the requests behind it.
const timerSlack = 1200 * time.Microsecond

// openLoop offers n requests at rate per second from `senders` goroutines.
// Request i is due at start + i/rate; a sender takes the next request,
// waits until it is within timerSlack of due, sends it, and records its
// latency. With every sender busy, due requests queue: that is the
// backlog.
func openLoop(n int, rate float64, senders []*client.Client, send func(c *client.Client, i int) error) olResult {
	res := olResult{due: make([]time.Time, n), lat: make([]time.Duration, n), lag: make([]time.Duration, n)}
	ok := make([]bool, n)
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	for _, c := range senders {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due) - timerSlack; d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := send(c, i)
				done := time.Now()
				// A request released early is timed from its send, a late
				// one from its due time, so a stall is charged to every
				// request queued behind it.
				from := due
				if sent.Before(due) {
					from = sent
				}
				res.due[i] = due
				res.lag[i] = max(sent.Sub(due), 0)
				res.lat[i] = done.Sub(from)
				if err != nil {
					mu.Lock()
					res.failed++
					if errors.Is(err, errWrong) {
						res.wrong++
					}
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
					mu.Unlock()
					continue
				}
				ok[i] = true
			}
		}(c)
	}
	wg.Wait()
	res.sent = n
	tail := res.lag[n-n/10:]
	var sum time.Duration
	for _, d := range tail {
		sum += d
	}
	if len(tail) > 0 {
		res.tailLag = sum / time.Duration(len(tail))
	}
	// A failed request misses any latency limit: keep it at +inf.
	for i := range res.lat {
		if !ok[i] {
			res.lat[i] = time.Duration(math.MaxInt64)
		}
	}
	return res
}

// merge appends the open-loop segment o to r.
func (r *olResult) merge(o olResult) {
	r.due = append(r.due, o.due...)
	r.lat = append(r.lat, o.lat...)
	r.lag = append(r.lag, o.lag...)
	r.sent += o.sent
	r.failed += o.failed
	r.wrong += o.wrong
	r.errs = append(r.errs, o.errs...)
}

// addOL counts an open-loop phase's requests into r's tally.
func (r *recorder) addOL(o *olResult) {
	r.attempted += o.sent
	r.failed += o.failed
	r.wrong += o.wrong
	r.errs = append(r.errs, o.errs...)
}

// samples returns the latencies as samples stamped with their due times.
func (r *olResult) samples() []sample {
	out := make([]sample, len(r.lat))
	for i := range out {
		out[i] = sample{at: r.due[i].Sub(epoch), d: r.lat[i]}
	}
	return out
}
