package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/kripke"
	"repro/internal/server"
)

// stack is the serving stack under test, in this process on loopback
// listeners: one knowd, or a knowrouter over two knowd shards. It is
// configured with the defaults cmd/knowd and cmd/knowrouter use.
type stack struct {
	url    string
	knowds []*server.Server
	router *cluster.Router

	tr       *tracer        // nil in the untraced run
	httpSrvs []*http.Server // the traced run's servers over wrapped handlers
	idle     []*http.Transport
	wg       sync.WaitGroup
	serveMu  sync.Mutex
	serveErr error

	closeOnce sync.Once
	closeErr  error
}

type stackConfig struct {
	routed bool
	// stateDir gives each knowd a state directory under stateRoot, without
	// write-through, so the traced run can time SaveSessions.
	stateDir  bool
	stateRoot string
	tr        *tracer
}

// transport is the per-hop HTTP transport: net/http's defaults, which keep
// at most two idle keep-alive connections per host, on a private pool so a
// torn-down stack leaves no connection behind.
func (st *stack) transport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 2
	st.idle = append(st.idle, t)
	return t
}

func (st *stack) serve(l net.Listener, serve func(net.Listener) error) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		if err := serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			st.serveMu.Lock()
			st.serveErr = err
			st.serveMu.Unlock()
		}
	}()
}

func (st *stack) startKnowd(cfg stackConfig, i int) (string, error) {
	// A fresh incarnation stamp, minted as cmd/knowd mints it.
	bootID := strconv.FormatInt(time.Now().UnixNano()^int64(os.Getpid())^int64(i), 36)
	if bootID[0] == '-' {
		bootID = bootID[1:]
	}
	scfg := server.Config{
		Seed:         1,
		Workers:      kripke.WorkersFromFlag(-1),
		Queue:        64,
		DedupeWindow: 256,
		SessionTTL:   15 * time.Minute,
		BootID:       bootID,
	}
	if cfg.stateDir {
		scfg.StateDir = filepath.Join(cfg.stateRoot, fmt.Sprintf("knowd%d", i))
		if err := os.MkdirAll(scfg.StateDir, 0o755); err != nil {
			return "", err
		}
	}
	s := server.New(scfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	st.knowds = append(st.knowds, s)
	if st.tr == nil {
		st.serve(l, s.Serve)
	} else {
		hs := &http.Server{Handler: st.tr.wrapHandler("server.handler.", s.Handler(), false)}
		st.httpSrvs = append(st.httpSrvs, hs)
		st.serve(l, hs.Serve)
	}
	return "http://" + l.Addr().String(), nil
}

// startStack boots the stack for cfg.
func startStack(cfg stackConfig) (*stack, error) {
	st := &stack{tr: cfg.tr}
	if !cfg.routed {
		u, err := st.startKnowd(cfg, 0)
		if err != nil {
			st.close()
			return nil, err
		}
		st.url = u
		return st, nil
	}
	var shards []cluster.Shard
	for i := 0; i < 2; i++ {
		u, err := st.startKnowd(cfg, i)
		if err != nil {
			st.close()
			return nil, err
		}
		shards = append(shards, cluster.Shard{ID: fmt.Sprintf("n%d", i+1), Addr: u, Weight: 1})
	}
	var upstream http.RoundTripper = st.transport()
	if st.tr != nil {
		upstream = &upstreamRT{t: st.tr, inner: upstream}
	}
	rt, err := cluster.New(cluster.Config{
		Shards:       shards,
		Seed:         1,
		HedgeAfter:   25 * time.Millisecond,
		Health:       cluster.HealthConfig{Every: time.Second, FailAfter: 3, ReadmitAfter: 5 * time.Second},
		DedupeWindow: 256,
		HTTPClient:   &http.Client{Timeout: 30 * time.Second, Transport: upstream},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = rt
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	if st.tr == nil {
		st.serve(l, rt.Serve)
	} else {
		rt.StartHealth()
		hs := &http.Server{Handler: st.tr.wrapHandler("cluster.handler.", rt.Handler(), true)}
		st.httpSrvs = append(st.httpSrvs, hs)
		st.serve(l, hs.Serve)
	}
	st.url = "http://" + l.Addr().String()
	return st, nil
}

// clients builds n benchmark clients sharing one transport to the stack's
// front, with client defaults. In the traced run each client also gets an
// attempt-timing transport bound to its recorder.
func (st *stack) clients(n int, seed int64, recs []*recorder) []*client.Client {
	shared := st.transport()
	shared.MaxConnsPerHost = 2
	out := make([]*client.Client, n)
	for w := range out {
		var rt http.RoundTripper = shared
		if st.tr != nil && recs != nil {
			wt := &workerTrace{t: st.tr, cur: -1}
			recs[w].wt = wt
			rt = &attemptRT{wt: wt, inner: shared}
		}
		out[w] = client.New(client.Config{
			BaseURL:    st.url,
			Seed:       seed + int64(w),
			HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: rt},
		})
	}
	return out
}

// close drains the router and every knowd, waits for their serve loops,
// and drops idle connections. Later calls return the first call's error.
func (st *stack) close() error {
	st.closeOnce.Do(func() { st.closeErr = st.shutdown() })
	return st.closeErr
}

func (st *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if st.router != nil {
		errs = append(errs, st.router.Shutdown(ctx))
	}
	for _, s := range st.knowds {
		errs = append(errs, s.Shutdown(ctx))
	}
	for _, hs := range st.httpSrvs {
		errs = append(errs, hs.Shutdown(ctx))
	}
	st.wg.Wait()
	for _, t := range st.idle {
		t.CloseIdleConnections()
	}
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		dt.CloseIdleConnections() // the router's health prober uses it
	}
	st.serveMu.Lock()
	errs = append(errs, st.serveErr)
	st.serveMu.Unlock()
	return errors.Join(errs...)
}

// knowdStats sums the shed, dedupe-hit, replay and panic counters over
// the stack's knowds.
func (st *stack) knowdStats() server.Stats {
	var sum server.Stats
	for _, s := range st.knowds {
		x := s.StatsSnapshot()
		sum.Shed += x.Shed
		sum.DedupeHits += x.DedupeHits
		sum.Replays += x.Replays
		sum.Panics += x.Panics
	}
	return sum
}
