package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mvpears/internal/server"
	"mvpears/internal/stream"
)

// Workload shapes. Why each exists is in README.md.
const (
	missRate      = 150.0   // nominal miss-mix arrivals per second
	hotRate       = 1000.0  // nominal hot-replay arrivals per second
	aeShare       = 1.0 / 8 // share of crafted AEs among never-seen uploads
	hotSetSize    = 2048    // half the daemon's default 4096-entry cache
	hotFillers    = 2000    // cold entries uploaded before the hot set
	hotFreshShare = 0.02    // never-seen uploads among hot-replay requests
	hotAltShare   = 0.25    // repeats re-wrapped in another WAV container
	zipfS         = 1.1     // hot-set popularity exponent
	streamAEShare = 0.5     // crafted AEs among streamed clips
	nominalShare  = 0.7     // of --seconds, the fixed-rate phase; the ladder gets the rest
	ladderRatio   = 1.1     // between neighbouring ladder rates
)

// exchange is one verdict the daemon served for an item.
type exchange struct {
	it  *item
	det server.DetectionJSON
}

// nominalRun is the fixed-rate phase of a batch workload: the requests
// in send order, with their outcomes. It feeds the latency metrics and
// the traced replay.
type nominalRun struct {
	items      []*item
	containers []int
	shots      []shot
	dets       []*server.DetectionJSON // nil where the request failed
}

// clipRun is one streamed clip.
type clipRun struct {
	it      *item // the audio actually sent (a prefix of src after an early exit)
	src     *item
	frames  int             // frames sent
	windows []time.Duration // frame-sent to window-event latencies
	events  []server.StreamWindowJSON
	flagged int // samples sent when the session flagged, -1 if never
	final   *server.DetectionJSON
	finalN  int // windows the final event reports
	finalAt time.Duration
	err     error
}

// decodeShots parses every 200 body. A failed or refused request counts
// in failed; a 200 whose body is not a verdict is an incorrect output.
func (e *env) decodeShots(items []*item, shots []shot) []*server.DetectionJSON {
	dets := make([]*server.DetectionJSON, len(shots))
	for i, s := range shots {
		e.rep.attempted++
		if !s.ok() {
			e.rep.failed++
			if s.err != nil {
				e.rep.note(fmt.Sprintf("request for item %d failed: %v", items[i].id, s.err))
			} else {
				e.rep.note(fmt.Sprintf("request for item %d failed: HTTP %d: %s", items[i].id, s.status, s.body))
			}
			continue
		}
		var det server.DetectionJSON
		if err := json.Unmarshal(s.body, &det); err != nil {
			e.rep.failed++
			e.rep.failure(fmt.Sprintf("item %d: bad response body: %v", items[i].id, err))
			continue
		}
		dets[i] = &det
		e.served = append(e.served, exchange{it: items[i], det: det})
	}
	return dets
}

// phase runs one open-loop batch of uploads.
func (e *env) phase(items []*item, containers []int, due []time.Duration) ([]shot, []*server.DetectionJSON) {
	reqs := make([]request, len(items))
	for i, it := range items {
		reqs[i] = request{parts: it.upload(containers[i]), due: due[i]}
	}
	shots := openLoop(context.Background(), e.client, e.detectURL(), reqs, e.conns)
	return shots, e.decodeShots(items, shots)
}

// maxSteal is the share of CPU time the hypervisor may take (steal,
// from /proc/stat) during a ladder step that fails before the step is
// run once more: stolen time is time the machine did not run at all, and
// a burst of it can fail a rate the daemon sustains. During the nominal
// phase steal is reported to explain a slow run, not corrected for.
const maxSteal = 0.01

// stealDuring returns the share of CPU time stolen while fn ran.
func stealDuring(fn func()) (float64, error) {
	t0, s0, err := stealTicks()
	if err != nil {
		return 0, err
	}
	fn()
	t1, s1, err := stealTicks()
	if err != nil || t1 <= t0 {
		return 0, err
	}
	return float64(s1-s0) / float64(t1-t0), nil
}

// phaseRun is a timed phase's /metrics before and after, the daemon's
// CPU time, and the share of CPU time stolen meanwhile.
type phaseRun struct {
	before, after promSnap
	cpu           time.Duration
	steal         float64
}

// measured runs fn between two /metrics scrapes and CPU readings.
func (e *env) measured(fn func()) (pr phaseRun, err error) {
	if pr.before, err = e.d.scrape(); err != nil {
		return
	}
	c0, err := e.d.cpu()
	if err != nil {
		return
	}
	if pr.steal, err = stealDuring(fn); err != nil {
		return
	}
	c1, err := e.d.cpu()
	if err != nil {
		return
	}
	pr.cpu = c1 - c0
	pr.after, err = e.d.scrape()
	return pr, err
}

// steal reports the share of CPU time stolen during the timed phase.
func (e *env) steal(pr phaseRun) {
	e.rep.set("machine.steal_pct", 100*pr.steal, "%", "CPU time the hypervisor took during the timed phase")
}

// nominal runs the fixed-rate phase of a batch workload, with uploads
// from next, and records its end-to-end metrics.
func (e *env) nominal(rate float64, next func(k int) ([]*item, []int, error)) error {
	n := int(rate * nominalShare * e.seconds.Seconds())
	items, containers, err := next(n)
	if err != nil {
		return err
	}
	due := poissonDue(e.rng, n, time.Duration(float64(n)/rate*float64(time.Second)))
	e.nom = &nominalRun{items: items, containers: containers}
	pr, err := e.measured(func() { e.nom.shots, e.nom.dets = e.phase(items, containers, due) })
	if err != nil {
		return err
	}
	e.steal(pr)
	shots, dets := e.nom.shots, e.nom.dets
	var lat, late []float64
	done := 0
	for _, s := range shots {
		late = append(late, ms(s.late()))
		if s.ok() {
			lat = append(lat, ms(s.latency()))
			done++
		}
	}
	p50, p99 := percentile(lat, 0.5), percentile(lat, 0.99)
	if !p50.OK || !p99.OK {
		return fmt.Errorf("nominal phase: %d answered requests are too few for a p99", len(lat))
	}
	e.rep.setP("latency_p50_ms", p50, "ms")
	e.rep.setP("latency_p99_ms", p99, "ms")
	lp := percentile(late, 0.99)
	e.rep.setP("generator.late_ms_p99", lp, "ms")
	if done > 0 {
		e.rep.set("cpu_ms_per_op", ms(pr.cpu)/float64(done), "ms", fmt.Sprintf("daemon CPU %.0f ms over %d answered requests", ms(pr.cpu), done))
	}
	// Accuracy counts each recording once: a popular hot recording's
	// repeats are the same cached verdict, not new evidence.
	acc, seen := 0, map[*item]bool{}
	for i, d := range dets {
		if d == nil || seen[items[i]] {
			continue
		}
		seen[items[i]] = true
		if d.Adversarial == items[i].ae() {
			acc++
		}
	}
	e.rep.set("accuracy", float64(acc)/float64(len(seen)), "fraction", fmt.Sprintf("%d of %d distinct recordings served the ground-truth verdict", acc, len(seen)))
	return e.layerCounters(pr.before, pr.after)
}

// layerCounters records the /metrics counter deltas of the nominal phase.
// Only families the metric-consolidation plan keeps are read: rejections
// come from mvpears_rejected_total{reason}, and no latency family is used.
func (e *env) layerCounters(before, after promSnap) error {
	get := func(name string, labels ...string) float64 {
		d, err := delta(before, after, name, labels...)
		if err != nil {
			e.rep.failure(err.Error())
		}
		return d
	}
	hits, misses := get("mvpears_cache_hits_total"), get("mvpears_cache_misses_total")
	if hits+misses > 0 {
		e.rep.set("vcache.hit_ratio", hits/(hits+misses), "fraction", fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	} else {
		e.rep.set("vcache.hit_ratio", 0, "fraction", "no cache lookups")
	}
	e.rep.set("vcache.evictions", get("mvpears_cache_evictions_total"), "count", "")
	e.rep.set("vcache.collapsed", get("mvpears_singleflight_collapsed_total"), "count", "")
	cascaded := get("mvpears_cascade_engines_run_count")
	if cascaded > 0 {
		e.rep.set("detector.short_circuit_ratio", get("mvpears_cascade_short_circuits_total")/cascaded, "fraction",
			fmt.Sprintf("%.0f cascaded detections", cascaded))
		e.rep.set("detector.engines_run_mean", get("mvpears_cascade_engines_run_sum")/cascaded, "count", "auxiliary engines per cascaded detection")
	} else {
		e.rep.set("detector.short_circuit_ratio", 0, "fraction", "no cascaded detections")
		e.rep.set("detector.engines_run_mean", 0, "count", "no cascaded detections")
	}
	e.rep.set("detector.sampled_full", get("mvpears_cascade_sampled_full_total"), "count", "")
	e.rep.set("stream.windows", get("mvpears_stream_windows_total"), "count", "")
	e.rep.set("stream.early_exits", get("mvpears_stream_early_exits_total"), "count", "")
	for _, reason := range []string{"queue_full", "stream_sessions"} {
		e.rep.set("server.rejected."+reason, get("mvpears_rejected_total", `reason="`+reason+`"`), "count", "")
	}
	return nil
}

// sustained runs the rate-ladder search; next supplies the uploads of a
// step of k requests. The budget is split evenly over the most steps a
// bisection of the ladder can take.
func (e *env) sustained(rates []float64, budget time.Duration, next func(k int) ([]*item, []int, error)) error {
	stepDur := budget / time.Duration(bits.Len(uint(len(rates))))
	var inErr error
	once := func(rate float64) (stepResult, float64, error) {
		k := int(math.Round(rate * stepDur.Seconds()))
		items, containers, err := next(k)
		if err != nil {
			inErr = err
			return stepResult{}, 0, err
		}
		due := poissonDue(e.rng, k, stepDur)
		var shots []shot
		steal, err := stealDuring(func() { shots, _ = e.phase(items, containers, due) })
		return judgeStep(rate, shots), steal, err
	}
	best, steps, err := searchLadder(rates, func(rate float64) (stepResult, error) {
		res, steal, err := once(rate)
		if err != nil || res.pass || steal <= maxSteal {
			return res, err
		}
		// The hypervisor, not the daemon, may have failed this step.
		e.rep.note(fmt.Sprintf("ladder step %.0f/s failed while the hypervisor took %.1f%% of CPU time; running it again", rate, 100*steal))
		res, _, err = once(rate)
		return res, err
	})
	if inErr != nil {
		return inErr
	}
	for _, s := range steps {
		e.rep.note(fmt.Sprintf("ladder step %.0f/s: %d sent, %d within %v, median lateness %v, pass=%v",
			s.rate, s.sent, s.good, sloLatency, s.late.Round(10*time.Microsecond), s.pass))
	}
	if err != nil {
		return err
	}
	e.rep.set("sustained_rps", best.goodput, "1/s", fmt.Sprintf("ladder rate %.0f/s, %d ladder steps of %v", best.rate, len(steps), stepDur))
	return nil
}

func canonical(n int) []int { return make([]int, n) }

// runMissMix: every upload is never-seen content, 1 in 8 a crafted AE.
func (e *env) runMissMix() error {
	nomDur := time.Duration(nominalShare * float64(e.seconds))
	fresh := func(k int) ([]*item, []int, error) {
		items, err := e.src.take(k, aeShare)
		return items, canonical(k), err
	}
	if err := e.nominal(missRate, fresh); err != nil {
		return err
	}
	return e.sustained(ladder(100, 1000, ladderRatio), e.seconds-nomDur, fresh)
}

// hotPicker draws hot-replay uploads: Zipf-popular repeats of the hot
// set, some re-wrapped in another container, and 1% never-seen uploads.
type hotPicker struct {
	e    *env
	hot  []*item
	zipf *rand.Zipf
}

func (h *hotPicker) next(k int) ([]*item, []int, error) {
	items := make([]*item, k)
	containers := make([]int, k)
	fresh := pick(h.e.rng, k, hotFreshShare)
	for i := range items {
		if fresh[i] {
			it, err := h.e.src.mixed(aeShare)
			if err != nil {
				return nil, nil, err
			}
			items[i] = it
			continue
		}
		items[i] = h.hot[h.zipf.Uint64()]
		if h.e.rng.Float64() < hotAltShare {
			containers[i] = 1 + h.e.rng.Intn(numContainers-1)
		}
	}
	return items, containers, nil
}

// runHotReplay: a warm cache answers almost everything.
func (e *env) runHotReplay() error {
	fillers := make([]*item, hotFillers)
	for i := range fillers {
		it, err := e.src.filler()
		if err != nil {
			return err
		}
		fillers[i] = it
	}
	hot, err := e.src.take(hotSetSize, aeShare)
	if err != nil {
		return err
	}
	// Warm-up, untimed: cold fillers first so they are the LRU victims,
	// then every hot recording once. Sent as fast as the connections go.
	warm := append(append([]*item(nil), fillers...), hot...)
	e.phase(warm, canonical(len(warm)), make([]time.Duration, len(warm)))
	h := &hotPicker{e: e, hot: hot, zipf: rand.NewZipf(e.rng, zipfS, 1, uint64(len(hot)-1))}
	nomDur := time.Duration(nominalShare * float64(e.seconds))
	if err := e.nominal(hotRate, h.next); err != nil {
		return err
	}
	return e.sustained(ladder(1000, 16000, ladderRatio), e.seconds-nomDur, h.next)
}

// runStreamLive: nproc closed-loop WebSocket sessions stream clips back
// to back in hop-sized frames.
func (e *env) runStreamLive() error {
	hop := e.sys.SampleRate() / 4 // the daemon's default 250 ms hop
	window := e.sys.SampleRate()  // and 1 s window
	pool, err := e.src.take(streamPool, streamAEShare)
	if err != nil {
		return err
	}
	url := "ws://" + e.d.addr + "/v1/detect/ws"
	var next atomic.Int64
	var mu sync.Mutex
	var runs []*clipRun
	var elapsed time.Duration
	pr, err := e.measured(func() {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < e.conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < e.seconds {
					i := int(next.Add(1)) - 1
					r := streamClip(url, pool[i%len(pool)], hop, window)
					mu.Lock()
					runs = append(runs, r)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		elapsed = time.Since(start)
	})
	if err != nil {
		return err
	}
	e.steal(pr)
	e.clips = runs
	var winLat, finLat, exitFrac []float64
	ops, acc := 0, 0
	seen := map[*item]bool{}
	for _, r := range runs {
		e.rep.attempted += 1 + len(r.windows)
		if r.err != nil || r.final == nil {
			e.rep.failed++
			e.rep.note(fmt.Sprintf("stream clip %d failed: %v", r.src.id, r.err))
			continue
		}
		for _, l := range r.windows {
			winLat = append(winLat, ms(l))
		}
		finLat = append(finLat, ms(r.finalAt))
		ops += 1 + len(r.windows)
		e.served = append(e.served, exchange{it: r.it, det: *r.final})
		flagged := r.flagged >= 0
		if !seen[r.src] {
			seen[r.src] = true
			if (flagged || r.final.Adversarial) == r.src.ae() {
				acc++
			}
		}
		if r.src.ae() {
			frac := 1.0
			if flagged {
				frac = float64(r.flagged) / float64(len(r.src.pcm)/2)
			}
			exitFrac = append(exitFrac, frac)
		}
	}
	w50, w99 := percentile(winLat, 0.5), percentile(winLat, 0.99)
	if !w50.OK || !w99.OK {
		return fmt.Errorf("stream-live: %d window events are too few for a p99", len(winLat))
	}
	e.rep.setP("latency_p50_ms", w50, "ms")
	e.rep.setP("latency_p99_ms", w99, "ms")
	e.rep.setP("window_p50_ms", w50, "ms")
	e.rep.setP("window_p99_ms", w99, "ms")
	e.rep.setP("final_p50_ms", percentile(finLat, 0.5), "ms")
	e.rep.set("early_exit_frac", mean(exitFrac), "fraction", fmt.Sprintf("over %d streamed AEs", len(exitFrac)))
	e.rep.set("sustained_rps", float64(ops)/elapsed.Seconds(), "1/s", fmt.Sprintf("window and final events per second, %d closed-loop sessions", e.conns))
	e.rep.set("cpu_ms_per_op", ms(pr.cpu)/float64(ops), "ms", fmt.Sprintf("daemon CPU %.0f ms over %d window and final events", ms(pr.cpu), ops))
	e.rep.set("accuracy", float64(acc)/float64(len(seen)), "fraction", fmt.Sprintf("%d of %d distinct clips flagged or finally judged as their ground truth", acc, len(seen)))
	e.rep.set("generator.late_ms_p99", 0, "ms", "closed loop: no schedule to fall behind")
	return e.layerCounters(pr.before, pr.after)
}

// streamPool is how many distinct clips stream-live cycles through. The
// streaming path consults the verdict cache only after Session.Finish
// has replayed the whole clip, so a repeated clip costs the daemon the
// same work as a new one; only its final verdict comes from the cache.
const streamPool = 600

// streamClip streams one clip over its own WebSocket session: a frame
// per hop, waiting for the window event each frame makes due, then
// "end" and the final event. After an early-exit stop it sends no more
// audio.
func streamClip(url string, it *item, hop, window int) *clipRun {
	r := &clipRun{src: it, flagged: -1}
	conn, err := stream.DialWS(url)
	if err != nil {
		r.err = err
		return r
	}
	defer conn.Close()
	total := len(it.pcm) / 2
	sent := 0
	nextEdge := window
	for sent < total && r.flagged < 0 {
		n := min(hop, total-sent)
		t0 := time.Now()
		if r.err = conn.WriteMessage(stream.OpBinary, it.pcm[2*sent:2*(sent+n)]); r.err != nil {
			return r
		}
		sent += n
		r.frames++
		for nextEdge <= sent && r.flagged < 0 {
			ev, err := readEvent(conn)
			if err != nil {
				r.err = err
				return r
			}
			if ev.Event != server.StreamEventWindow || ev.Window == nil {
				r.err = fmt.Errorf("expected a window event, got %q %s", ev.Event, ev.Error)
				return r
			}
			r.windows = append(r.windows, time.Since(t0))
			r.events = append(r.events, *ev.Window)
			if ev.Stop {
				r.flagged = sent
			}
			nextEdge += hop
		}
	}
	t0 := time.Now()
	if r.err = conn.WriteMessage(stream.OpText, []byte("end")); r.err != nil {
		return r
	}
	ev, err := readEvent(conn)
	if err != nil {
		r.err = err
		return r
	}
	if ev.Event != server.StreamEventFinal || ev.Detection == nil {
		r.err = fmt.Errorf("expected the final event, got %q %s", ev.Event, ev.Error)
		return r
	}
	r.finalAt = time.Since(t0)
	r.final, r.finalN = ev.Detection, ev.Windows
	r.it = it
	if sent < total {
		r.it = &item{id: it.id, kind: it.kind, rate: it.rate, pcm: it.pcm[:2*sent]}
	}
	return r
}

func readEvent(conn *stream.WSConn) (server.StreamEventJSON, error) {
	var ev server.StreamEventJSON
	op, payload, err := conn.ReadMessage()
	if err != nil {
		return ev, err
	}
	if op != stream.OpText {
		return ev, fmt.Errorf("unexpected WebSocket opcode %d", op)
	}
	return ev, json.Unmarshal(payload, &ev)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
