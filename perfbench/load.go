package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sloLatency is the daemon's own detect-latency objective (the
// -slo-latency-target SLO counts requests answered within 250 ms).
const sloLatency = 250 * time.Millisecond

// maxLateness bounds the median lateness of a ladder step: a generator
// whose median request goes out later than this is not keeping up, so
// its backlog is growing. The median ignores the burst of late sends a
// brief stall of the shared machine causes.
const maxLateness = 25 * time.Millisecond

// poissonDue returns n arrival offsets of a Poisson process over dur,
// conditioned on exactly n arrivals (n sorted uniform points), so a
// phase always yields the sample count its percentiles need.
func poissonDue(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// request is one scheduled upload: its body parts (sent back to back
// without copying) and when it is due, relative to the phase start.
type request struct {
	parts [][]byte
	due   time.Duration
}

// shot is the outcome of one request. Latency is timed from the due
// time, so a stalled connection charges the wait to every request it
// delays.
type shot struct {
	due, sent, done time.Duration
	status          int
	body            []byte
	err             error
}

func (s shot) latency() time.Duration { return s.done - s.due }
func (s shot) late() time.Duration    { return s.sent - s.due }
func (s shot) ok() bool               { return s.err == nil && s.status == http.StatusOK }

// openLoop sends every request at its due time over at most conns
// connections and waits for all answers. A request whose connection is
// still busy when it falls due is sent as soon as one frees up; that
// wait is the generator's lateness.
func openLoop(ctx context.Context, client *http.Client, url string, reqs []request, conns int) []shot {
	shots := make([]shot, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if wait := r.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sh := shot{due: r.due, sent: time.Since(start)}
				sh.status, sh.body, sh.err = post(ctx, client, url, r.parts)
				sh.done = time.Since(start)
				shots[i] = sh
			}
		}()
	}
	wg.Wait()
	return shots
}

// post uploads one WAV body and returns the status and response body.
func post(ctx context.Context, client *http.Client, url string, parts [][]byte) (int, []byte, error) {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, io.MultiReader(readers(parts)...))
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = int64(size)
	req.Header.Set("Content-Type", "audio/wav")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// readers wraps body parts for io.MultiReader.
func readers(parts [][]byte) []io.Reader {
	out := make([]io.Reader, len(parts))
	for i, p := range parts {
		out[i] = bytes.NewReader(p)
	}
	return out
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// stepResult judges one ladder step.
type stepResult struct {
	rate    float64 // nominal arrival rate
	sent    int
	good    int           // 200 within sloLatency of its due time
	late    time.Duration // median lateness of the step's sends
	goodput float64       // good answers per second, step start to last answer
	pass    bool
}

// judgeStep applies the sustained-rate rule: at least 99% of the step's
// requests answered 200 within the SLO, timed from when each was due,
// and the generator kept up with its schedule.
func judgeStep(rate float64, shots []shot) stepResult {
	res := stepResult{rate: rate, sent: len(shots)}
	var lastDone time.Duration
	late := make([]float64, len(shots))
	for i, s := range shots {
		if s.done > lastDone {
			lastDone = s.done
		}
		if s.ok() && s.latency() <= sloLatency {
			res.good++
		}
		late[i] = float64(s.late())
	}
	res.late = time.Duration(median(late))
	if lastDone > 0 {
		res.goodput = float64(res.good) / lastDone.Seconds()
	}
	res.pass = res.sent > 0 && float64(res.good) >= 0.99*float64(res.sent) && res.late <= maxLateness
	return res
}

// ladder returns the fixed geometric rate ladder lo·ratio^k up to hi.
func ladder(lo, hi, ratio float64) []float64 {
	var out []float64
	for r := lo; r <= hi*(1+1e-9); r *= ratio {
		out = append(out, math.Round(r*100)/100)
	}
	return out
}

// searchLadder finds the highest ladder rate whose step passes, by
// bisection over the ladder (the pass/fail boundary is assumed
// monotone: a rate above a failing one fails too). It returns the best
// passing step and every step it ran.
func searchLadder(rates []float64, step func(rate float64) (stepResult, error)) (stepResult, []stepResult, error) {
	lo, hi := -1, len(rates)
	var best stepResult
	var all []stepResult
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		res, err := step(rates[mid])
		if err != nil {
			return stepResult{}, all, err
		}
		all = append(all, res)
		if res.pass {
			lo, best = mid, res
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return stepResult{}, all, fmt.Errorf("ladder: even the lowest rate %.0f/s failed", rates[0])
	}
	return best, all, nil
}
