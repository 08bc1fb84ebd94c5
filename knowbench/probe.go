package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host probe measures how fast the host runs right now, so that the
// timed metrics can be put on one scale across the host's slow and fast
// phases.
//
// On a small shared host the speed of this kind of code moves by 1.5x and
// more over tens of seconds to minutes, while a register-only loop barely
// moves: the phases change how fast memory-heavy code, the Go runtime and
// the kernel's loopback path run, and the serving stack's CPU time per op
// moves with them. A phase that covers a whole run moves every figure of
// that run, and no median within the run can take it out. So the run
// measures the host with a fixed reference load between stretches of the
// measured load, and reports every time at the speed the reference had
// on the build host.
//
// The reference is a closed loop of two clients making HTTP/JSON round
// trips on loopback to a handler that fills a map, sorts and hashes: the
// same kind of work as a served request (net/http, encoding/json,
// allocation, maps, the loopback TCP path, two client goroutines on two
// CPUs), but none of the program's code. It runs in a child process, so
// the program's heap, goroutines and garbage collector cannot slow it or
// speed it up.

// probeEnv, set to 1, makes the knowbench binary (or the test binary) run
// as the probe child.
const probeEnv = "KNOWBENCH_PROBE"

// probeRefNs is about the reference round trip's median time on the build
// host (2 vCPUs of a shared x86-64 host, in a typical phase), in ns.
// Timed metrics are reported scaled to it: a time t measured while the
// round trip took p ns is reported as t * probeRefNs / p.
const probeRefNs = 80_000

// probeClients is how many client goroutines drive the reference, as
// the measured load has two.
const probeClients = 2

// probeReq and probeResp are the reference round trip's messages.
type probeReq struct {
	Seed  uint64   `json:"seed"`
	Items []string `json:"items"`
}

type probeResp struct {
	Sum   string `json:"sum"`
	Count int    `json:"count"`
}

// probeWork is the handler's fixed work: draw 512 values, count them into
// a map, sort them and hash the result.
func probeWork(seed uint64) probeResp {
	x := seed | 1
	vals := make([]uint32, 512)
	m := make(map[uint32]int, 256)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = uint32(x)
		m[uint32(x)&1023]++
	}
	slices.Sort(vals)
	h := sha256.New()
	var b [4]byte
	for _, v := range vals {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	return probeResp{Sum: hex.EncodeToString(h.Sum(nil)), Count: len(m)}
}

// probeChild is the child's main loop: it serves the reference handler on
// loopback, and for each line on in, a duration in milliseconds, runs
// round trips for that long and writes the median round trip in ns to
// out. It returns when in is closed.
func probeChild(in io.Reader, out io.Writer) error {
	runtime.GOMAXPROCS(2)
	mux := http.NewServeMux()
	mux.HandleFunc("/probe", func(w http.ResponseWriter, r *http.Request) {
		var q probeReq
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := probeWork(q.Seed)
		resp.Count += len(q.Items)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	defer func() { srv.Close(); <-done }()
	tr := &http.Transport{MaxIdleConnsPerHost: probeClients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	url := "http://" + l.Addr().String() + "/probe"
	body, err := json.Marshal(probeReq{Seed: 0x9e3779b97f4a7c15, Items: []string{"K0 muddy1", "E muddy0", "C (muddy0 | muddy1)"}})
	if err != nil {
		return err
	}
	want := probeWork(0x9e3779b97f4a7c15)
	want.Count += 3
	roundTrip := func() error {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var got probeResp
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		if got != want {
			return fmt.Errorf("probe answered %+v, want %+v", got, want)
		}
		return nil
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		msec, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil {
			return err
		}
		end := time.Now().Add(time.Duration(msec) * time.Millisecond)
		rts := make([][]time.Duration, probeClients)
		errs := make([]error, probeClients)
		var wg sync.WaitGroup
		for g := range probeClients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for len(rts[g]) < 3 || time.Now().Before(end) {
					t0 := time.Now()
					if errs[g] = roundTrip(); errs[g] != nil {
						return
					}
					rts[g] = append(rts[g], time.Since(t0))
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out, int64(quantile(slices.Concat(rts...), 0.5))); err != nil {
			return err
		}
	}
	return sc.Err()
}

// probe is the parent's handle on the probe child.
type probe struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	samples []time.Duration
}

// probeSlice is how long one probe sample runs the reference.
const probeSlice = 100 * time.Millisecond

// startProbe starts the probe child from this process's own executable
// and takes one sample to warm it up; that sample is dropped.
func startProbe() (*probe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &probe{cmd: cmd, in: in, out: bufio.NewScanner(outPipe)}
	if err := p.measure(); err != nil {
		p.close()
		return nil, err
	}
	p.samples = nil
	return p, nil
}

// measure runs the reference for probeSlice and records its median round
// trip.
func (p *probe) measure() error {
	if _, err := fmt.Fprintln(p.in, probeSlice.Milliseconds()); err != nil {
		return err
	}
	if !p.out.Scan() {
		return errors.Join(errors.New("probe child exited"), p.out.Err())
	}
	ns, err := strconv.ParseInt(p.out.Text(), 10, 64)
	if err != nil {
		return err
	}
	p.samples = append(p.samples, time.Duration(ns))
	return nil
}

// scale is the factor that puts this run's times at the reference speed:
// probeRefNs over the median of the run's probe samples.
func (p *probe) scale() float64 {
	return probeRefNs / float64(quantile(slices.Clone(p.samples), 0.5))
}

// close ends the child and waits for it.
func (p *probe) close() error {
	p.in.Close()
	return p.cmd.Wait()
}
