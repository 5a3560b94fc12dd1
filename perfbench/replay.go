package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"mvpears/internal/asr"
	"mvpears/internal/audio"
	"mvpears/internal/classify"
	"mvpears/internal/dsp"
	"mvpears/internal/server"
	"mvpears/internal/stream"
	"mvpears/internal/vcache"
)

// The traced replay runs a workload's inputs through the layers'
// exported functions in this process, on the artifact the daemon served
// and with the same accelerator state, recording one span per call. It
// follows the path the daemon reported for each request (cache hit,
// cascade short-circuit, escalation, sampled full run) and checks that
// it reproduces the served verdict, scores and transcriptions.

// energyGateRatio mirrors the engines' frame energy gate (internal/asr),
// needed to decode FrameLabels output the way Transcribe does. The probe
// checks its decoded text against the real transcription, so a drift in
// the constant fails the run instead of skewing asr.decode_us.
const energyGateRatio = 0.08

// maxUploadBytes is mvpearsd's default -max-upload.
const maxUploadBytes = 16 << 20

// allocSamples bounds how many clips the allocation probe measures.
const allocSamples = 50

// frontEnd returns an engine's MFCC extractor and word decoder.
func frontEnd(r asr.Recognizer) (*dsp.MFCC, *asr.Decoder, error) {
	switch e := r.(type) {
	case *asr.MLPEngine:
		return e.MFCC, e.Dec, nil
	case *asr.RNNEngine:
		return e.MFCC, e.Dec, nil
	case *asr.GMMEngine:
		return e.MFCC, e.Dec, nil
	case *asr.WeakEngine:
		return e.MFCC, e.Dec, nil
	}
	return nil, nil, fmt.Errorf("engine %s: unknown type %T", r.Name(), r)
}

// reqCost is one replayed request's per-layer self time and the part of
// it that blocks the answer.
type reqCost struct {
	self     map[string]time.Duration // layer -> summed self time
	blocking time.Duration
}

// replayer holds the replay state of one run.
type replayer struct {
	e       *env
	L       *layers
	rec     *recorder
	engines []asr.Recognizer // target first, then auxiliaries
	costs   []reqCost
	decode  map[string][]float64 // engine -> probe Decoder.Decode µs
	labels  map[string][]float64 // engine -> transcribe self − decode µs
	allocs  map[string][]float64
	macs    map[string][]float64 // engine -> MACs per clip
	bytes   map[string][]float64
	pushUS  []float64 // stream.push self time on window-emitting hops
	finUS   []float64
	hopCost []time.Duration // decode + push on window-emitting hops
}

// engineNames are the target and auxiliaries of the artifact the
// benchmark trains (mvpears.Build's default detector).
var engineNames = []string{"DS0", "DS1", "GCS", "AT"}

// perLayerNames lists the per-layer metric names in output order.
func perLayerNames(engines []string) []string {
	names := []string{"audio.decode_us", "vcache.key_us", "vcache.lookup_us", "vcache.hit_ratio", "vcache.evictions", "vcache.collapsed", "dsp.mfcc_us"}
	for _, en := range []string{"DS0", "DS1", "GCS"} {
		names = append(names, "nn.macs."+en, "nn.bytes."+en)
	}
	for _, en := range engines {
		names = append(names, "asr.labels_us."+en, "asr.decode_us."+en, "asr.allocs."+en, "asr.stream_window_us."+en)
	}
	names = append(names, "phonetic.encode_us", "similarity.score_us", "classify.predict_us",
		"detector.short_circuit_ratio", "detector.engines_run_mean", "detector.sampled_full", "detector.short_circuit_flips", "nn.int8_flips",
		"stream.push_us", "stream.finish_us", "stream.windows", "stream.early_exits",
		"server.residual_us", "server.rejected.queue_full", "server.rejected.stream_sessions", "generator.late_ms_p99")
	return names
}

// replay runs the traced replay and records the per-layer metrics.
func (e *env) replay() error {
	L, err := openLayers(e.model)
	if err != nil {
		return err
	}
	want := fmt.Sprint(L.quantized)
	found := false
	for _, l := range e.bootLog {
		if strings.Contains(l, "int8 inference enabled for "+want) {
			found = true
		}
	}
	if !found {
		e.rep.failure(fmt.Sprintf("replay quantized %s, but the daemon boot log says otherwise: %q", want, e.bootLog))
	}
	r := &replayer{
		e: e, L: L, rec: newRecorder(),
		engines: append([]asr.Recognizer{L.det.Target}, L.det.Auxiliaries...),
		decode:  map[string][]float64{}, labels: map[string][]float64{},
		allocs: map[string][]float64{}, macs: map[string][]float64{}, bytes: map[string][]float64{},
	}
	if e.workload == "stream-live" {
		err = r.stream()
	} else {
		err = r.batch()
	}
	if err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(e.work, "spans-"+e.workload+".jsonl"), r.rec.spans); err != nil {
		return err
	}
	r.report()
	return nil
}

// batch replays the nominal phase of a batch workload in send order.
func (r *replayer) batch() error {
	e := r.e
	lru := vcache.New[bool](4096, 64<<20) // mvpearsd's default bounds
	verdictByKey := map[string]bool{}
	// Reused across requests like the daemon's pooled buffers.
	scratch := make([]byte, 0, 64<<10)
	var samples []float64
	for i, it := range e.nom.items {
		served := e.nom.dets[i]
		if served == nil {
			continue
		}
		first := len(r.rec.spans)
		root := r.rec.begin("request", -1, i)
		var pcm audio.PCM16
		var err error
		r.rec.do("audio.decode", root, i, func() {
			pcm, err = audio.ReadWAVPCM(io.MultiReader(readers(it.upload(e.nom.containers[i]))...), maxUploadBytes, scratch[:0])
		})
		if err != nil {
			return fmt.Errorf("replay decode of item %d: %w", it.id, err)
		}
		var key string
		r.rec.do("vcache.key", root, i, func() { key = vcache.KeyPCM16(e.fp, pcm.SampleRate, pcm.Data) })
		r.rec.do("vcache.lookup", root, i, func() { lru.Get(key) })
		if served.Cached {
			r.rec.end(root)
			r.costs = append(r.costs, r.cost(first, nil))
			if v, ok := verdictByKey[key]; ok && v != served.Adversarial {
				e.rep.failure(fmt.Sprintf("item %d: cache hit served adversarial=%v, its replayed miss said %v", it.id, served.Adversarial, v))
			}
			continue
		}
		var clip *audio.Clip
		r.rec.do("audio.decode", root, i, func() { clip = pcm.DecodeInto(samples[:0]) })
		samples = clip.Samples
		phases, verdict, err := r.detect(root, i, clip, served)
		if err != nil {
			return fmt.Errorf("replay of item %d: %w", it.id, err)
		}
		lru.Put(key, verdict, 1)
		verdictByKey[key] = verdict
		r.rec.end(root)
		r.costs = append(r.costs, r.cost(first, phases))
		r.probe(i, clip, served)
	}
	return nil
}

// detect replays one cache miss along the cascade path the daemon took,
// recording dsp/asr/phonetic/similarity/classify spans, and checks the
// result against the served response. It returns the engine indices of
// each concurrent recognition phase.
func (r *replayer) detect(root, req int, clip *audio.Clip, served *server.DetectionJSON) ([][]int, bool, error) {
	d := r.L.det
	n := len(d.Auxiliaries)
	casc := served.Cascade
	if casc == nil {
		return nil, false, fmt.Errorf("served response has no cascade record; is the daemon running -cascade-margin 0?")
	}
	cache := asr.NewFeatureCache(clip.Samples)
	extracted := map[string]bool{}
	texts := make([]string, n+1)
	transcribe := func(idx int) error {
		eng := r.engines[idx]
		mf, _, err := frontEnd(eng)
		if err != nil {
			return err
		}
		if fp := mf.Config().Fingerprint(); !extracted[fp] {
			extracted[fp] = true
			r.rec.do("dsp.mfcc", root, req, func() { _, err = cache.Extract(mf) })
			if err != nil {
				return err
			}
		}
		r.rec.do("asr.transcribe."+eng.Name(), root, req, func() {
			texts[idx], err = eng.(asr.CacheTranscriber).TranscribeWithCache(clip, cache)
		})
		return err
	}
	encode := func(idx int) (s string) {
		r.rec.do("phonetic.encode", root, req, func() { s = d.Method.Encode(texts[idx]) })
		return s
	}
	score := func(a, b string) (v float64) {
		r.rec.do("similarity.score", root, req, func() { v = d.Method.Score(a, b) })
		return v
	}
	auxIdx := map[string]int{}
	for i, a := range d.Auxiliaries {
		auxIdx[a.Name()] = i
	}

	var phases [][]int
	var scores []float64
	var pred int
	var err error
	switch {
	case casc.SampledFull:
		// detectFull: every engine at once, each text encoded once.
		all := make([]int, n+1)
		for i := range all {
			all[i] = i
			if err := transcribe(i); err != nil {
				return nil, false, err
			}
		}
		phases = [][]int{all}
		encT := encode(0)
		encA := make([]string, n)
		for i := range encA {
			encA[i] = encode(i + 1)
		}
		scores = make([]float64, n)
		for i := range scores {
			scores[i] = score(encT, encA[i])
		}
		r.rec.do("classify.predict", root, req, func() { pred, err = d.Classifier.Predict(scores) })
	case casc.ShortCircuit:
		if len(casc.EnginesRun) != 1 {
			return nil, false, fmt.Errorf("short-circuit ran %v", casc.EnginesRun)
		}
		first, ok := auxIdx[casc.EnginesRun[0]]
		if !ok {
			return nil, false, fmt.Errorf("unknown engine %q", casc.EnginesRun[0])
		}
		for _, i := range []int{0, first + 1} {
			if err := transcribe(i); err != nil {
				return nil, false, err
			}
		}
		phases = [][]int{{0, first + 1}}
		s := score(encode(0), encode(first+1))
		if s < casc.Margin {
			r.e.rep.failure(fmt.Sprintf("request %d: served a short-circuit but the replayed first score %v is below the margin %v", req, s, casc.Margin))
		}
		observed, have := make([]float64, n), make([]bool, n)
		observed[first], have[first] = s, true
		r.rec.do("classify.predict", root, req, func() {
			pred, scores, err = classify.PredictPartial(d.Classifier, r.L.fill, observed, have)
		})
	default:
		// Escalation: phase one (target + the cheapest usable auxiliary),
		// then the rest. The phase-one engine is the one whose score the
		// daemon reported as first_score.
		for i := 0; i <= n; i++ {
			if err := transcribe(i); err != nil {
				return nil, false, err
			}
		}
		full := make([]float64, n)
		for i := range full {
			full[i] = d.Method.Compare(texts[0], texts[i+1])
		}
		partial := func(i int, s float64) (int, error) {
			observed, have := make([]float64, n), make([]bool, n)
			observed[i], have[i] = s, true
			p, _, err := classify.PredictPartial(d.Classifier, r.L.fill, observed, have)
			return p, err
		}
		// Exact comparison: the served score is a JSON round trip of the
		// same float64 (shortest-representation encoding). Several
		// auxiliaries can tie on it (two perfect transcriptions); the
		// daemon's phase-one engine is then one whose partial vector is
		// consistent with the escalation.
		var tied []int
		for _, name := range casc.EnginesRun {
			if i := auxIdx[name]; full[i] == casc.FirstScore {
				tied = append(tied, i)
			}
		}
		if len(tied) == 0 {
			return nil, false, fmt.Errorf("no auxiliary reproduces the served first score %v (replayed %v)", casc.FirstScore, full)
		}
		first := tied[0]
		if casc.FirstScore >= casc.Margin {
			consistent := false
			for _, i := range tied {
				if p, err := partial(i, full[i]); err == nil && p == 1 {
					first, consistent = i, true
					break
				}
			}
			if !consistent {
				r.e.rep.failure(fmt.Sprintf("request %d: served an escalation but every replayed partial vector classifies benign", req))
			}
		}
		phase2 := []int{}
		for i := 0; i < n; i++ {
			if i != first {
				phase2 = append(phase2, i+1)
			}
		}
		phases = [][]int{{0, first + 1}, phase2}
		scores = make([]float64, n)
		// Method.Compare encodes both sides on every call, as the daemon does.
		scores[first] = score(encode(0), encode(first+1))
		if scores[first] >= casc.Margin {
			r.rec.do("classify.predict", root, req, func() { _, err = partial(first, scores[first]) })
		}
		for _, i := range phase2 {
			scores[i-1] = score(encode(0), encode(i))
		}
		r.rec.do("classify.predict", root, req, func() { pred, err = d.Classifier.Predict(scores) })
	}
	if err != nil {
		return nil, false, err
	}
	adversarial := pred == 1
	if adversarial != served.Adversarial {
		r.e.rep.failure(fmt.Sprintf("request %d: replay verdict adversarial=%v, daemon served %v", req, adversarial, served.Adversarial))
	}
	if !reflect.DeepEqual(scores, served.Scores) {
		r.e.rep.failure(fmt.Sprintf("request %d: replay scores %v, daemon served %v", req, scores, served.Scores))
	}
	for _, ph := range phases {
		for _, i := range ph {
			name := r.engines[i].Name()
			if texts[i] != served.Transcriptions[name] {
				r.e.rep.failure(fmt.Sprintf("request %d: replay %s heard %q, daemon served %q", req, name, texts[i], served.Transcriptions[name]))
			}
		}
	}
	return phases, adversarial, nil
}

// cost folds the spans from index first on (one request) into per-layer
// self times and the blocking-path total. Engines of one phase run
// concurrently in the daemon, so a phase blocks for the longer of its
// slowest engine (front end + transcription) and its total work spread
// over the CPUs.
func (r *replayer) cost(first int, phases [][]int) reqCost {
	spans := r.rec.spans[first:]
	shifted := make([]span, len(spans))
	for i, s := range spans {
		shifted[i] = s
		if s.Parent >= 0 {
			shifted[i].Parent = s.Parent - first
		}
	}
	self := selfTimes(shifted)
	c := reqCost{self: map[string]time.Duration{}}
	// An engine's work is its transcription plus the front-end extraction
	// recorded right before it (detect opens a dsp.mfcc span only for a
	// front end no earlier engine of the request extracted).
	engineWork := map[string]time.Duration{}
	for i, s := range shifted {
		if s.Parent < 0 {
			continue
		}
		c.self[s.Name] += self[i]
		switch {
		case strings.HasPrefix(s.Name, "asr.transcribe."):
			engineWork[strings.TrimPrefix(s.Name, "asr.transcribe.")] += self[i]
		case s.Name == "dsp.mfcc" && i+1 < len(shifted):
			engineWork[strings.TrimPrefix(shifted[i+1].Name, "asr.transcribe.")] += self[i]
		default:
			c.blocking += self[i]
		}
	}
	for _, ph := range phases {
		var longest, total time.Duration
		for _, i := range ph {
			w := engineWork[r.engines[i].Name()]
			total += w
			longest = max(longest, w)
		}
		c.blocking += max(longest, total/time.Duration(r.e.conns))
	}
	return c
}

// probe measures, outside the request's span tree, how the engines'
// time splits between frame labelling and word decoding, their
// allocations, and their network sizes.
func (r *replayer) probe(req int, clip *audio.Clip, served *server.DetectionJSON) {
	ran := map[string]bool{r.engines[0].Name(): true}
	for _, n := range served.Cascade.EnginesRun {
		ran[n] = true
	}
	costs := r.costs[len(r.costs)-1]
	for _, eng := range r.engines {
		name := eng.Name()
		if !ran[name] {
			continue
		}
		mf, dec, err := frontEnd(eng)
		if err != nil {
			r.e.rep.failure(err.Error())
			return
		}
		labels, err := eng.(asr.FrameLabeler).FrameLabels(clip)
		if err != nil {
			r.e.rep.failure(fmt.Sprintf("probe %s: %v", name, err))
			return
		}
		mc := mf.Config()
		gated := asr.ApplyEnergyGate(labels, clip.Samples, mc.FrameLen, mc.Hop, energyGateRatio)
		var text string
		i := r.rec.begin("probe.asr.decode."+name, -1, req)
		text, err = dec.Decode(gated)
		r.rec.end(i)
		sp := r.rec.spans[i]
		if err != nil || text != served.Transcriptions[name] {
			r.e.rep.failure(fmt.Sprintf("probe %s: decoding FrameLabels gives %q (%v), daemon served %q", name, text, err, served.Transcriptions[name]))
		}
		r.decode[name] = append(r.decode[name], us(sp.End-sp.Start))
		r.labels[name] = append(r.labels[name], us(costs.self["asr.transcribe."+name]-(sp.End-sp.Start)))
		frames := float64(mf.NumFrames(len(clip.Samples)))
		switch e := eng.(type) {
		case *asr.MLPEngine:
			var macs, acts float64
			for l := 0; l+1 < len(e.Net.Sizes); l++ {
				macs += float64(e.Net.Sizes[l] * e.Net.Sizes[l+1])
				acts += float64(e.Net.Sizes[l] + e.Net.Sizes[l+1])
			}
			r.nnSize(name, frames, macs, acts, e.Quantized())
		case *asr.RNNEngine:
			n := e.Net
			macs := float64(n.In*n.Hidden + n.Hidden*n.Hidden + n.Hidden*n.Out)
			r.nnSize(name, frames, macs, float64(n.In+2*n.Hidden+n.Out), e.Quantized())
		}
		if len(r.allocs[name]) < allocSamples {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := eng.Transcribe(clip)
			runtime.ReadMemStats(&m1)
			if err == nil {
				r.allocs[name] = append(r.allocs[name], float64(m1.Mallocs-m0.Mallocs))
			}
		}
	}
}

// nnSize records one clip's multiply-accumulates and bytes moved,
// computed from tensor sizes (not measured): per frame, macs
// multiply-adds over as many weights (biases left out); weights are read
// once per clip by the batched int8 kernel (1 byte each) and once per
// frame by the float64 per-frame forward (8 bytes each); activations in
// and out are float64. Margin-guard float recomputations of the int8
// path are not counted.
func (r *replayer) nnSize(name string, frames, macs, acts float64, quantized bool) {
	r.macs[name] = append(r.macs[name], frames*macs)
	wb := macs * 8 * frames
	if quantized {
		wb = macs
	}
	r.bytes[name] = append(r.bytes[name], wb+acts*8*frames)
}

// stream replays every streamed clip through a stream.Session built like
// the daemon's, hop by hop, plus a twin EnsembleStream that times each
// engine's WindowText.
func (r *replayer) stream() error {
	e := r.e
	d := r.L.det
	floors, err := d.CalibrateFloors(r.L.benignX, r.L.aeX, 0)
	if err != nil {
		return err
	}
	rate := r.L.engines.SampleRate
	mgr, err := stream.NewManager(stream.Config{Detector: d, SampleRate: rate, Floors: floors})
	if err != nil {
		return err
	}
	defer mgr.Close()
	hop := rate / 4
	ctx := context.Background()
	req := 0
	var buf []float64
	for ci, c := range e.clips {
		if c.final == nil {
			continue
		}
		sess, err := mgr.Open()
		if err != nil {
			return err
		}
		twin, err := asr.NewEnsembleStream(r.engines, rate)
		if err != nil {
			return err
		}
		sent, win := 0, 0
		total := len(c.it.pcm) / 2
		for f := 0; f < c.frames; f++ {
			n := min(hop, total-sent)
			frame := c.it.pcm[2*sent : 2*(sent+n)]
			sent += n
			req++
			first := len(r.rec.spans)
			root := r.rec.begin("hop", -1, req)
			r.rec.do("audio.decode", root, req, func() { buf, err = audio.AppendPCM16(buf[:0], frame) })
			if err != nil {
				return err
			}
			var wins []stream.Window
			pushIdx := len(r.rec.spans)
			r.rec.do("stream.push", root, req, func() { wins, err = sess.Push(ctx, buf) })
			r.rec.end(root)
			if err != nil {
				return fmt.Errorf("replay push: %w", err)
			}
			if len(wins) > 0 {
				cst := r.cost(first, nil)
				r.hopCost = append(r.hopCost, cst.blocking)
				r.pushUS = append(r.pushUS, us(r.rec.spans[pushIdx].End-r.rec.spans[pushIdx].Start))
			}
			if err := twin.Push(buf); err != nil {
				return err
			}
			for _, w := range wins {
				for i, eng := range r.engines {
					var text string
					r.rec.do("asr.stream_window."+eng.Name(), -1, req, func() { text, err = twin.WindowText(i, w.Start, w.End) })
					if err != nil {
						return err
					}
					want := w.Target
					if i > 0 {
						want = w.Aux[i-1]
					}
					if text != want {
						e.rep.failure(fmt.Sprintf("clip %d: twin %s window text %q, session %q", ci, eng.Name(), text, want))
					}
				}
				if win >= len(c.events) {
					e.rep.failure(fmt.Sprintf("clip %d: replay emitted window %d, the daemon sent %d", ci, win, len(c.events)))
					continue
				}
				sv := c.events[win]
				win++
				if (sv.Verdict == server.VerdictAdversarial) != w.Adversarial || sv.EarlyExit != w.EarlyExit ||
					sv.Transcriptions[d.Target.Name()] != w.Target {
					e.rep.failure(fmt.Sprintf("clip %d window %d: replay adversarial=%v early_exit=%v %q, daemon %s early_exit=%v %q",
						ci, w.Index, w.Adversarial, w.EarlyExit, w.Target, sv.Verdict, sv.EarlyExit, sv.Transcriptions[d.Target.Name()]))
				}
			}
		}
		if win != len(c.events) {
			e.rep.failure(fmt.Sprintf("clip %d: replay emitted %d windows, the daemon sent %d", ci, win, len(c.events)))
		}
		req++
		root := r.rec.begin("final", -1, req)
		var fin *stream.Final
		finIdx := len(r.rec.spans)
		r.rec.do("stream.finish", root, req, func() { fin, err = sess.Finish(ctx) })
		if err != nil {
			return fmt.Errorf("replay finish: %w", err)
		}
		r.rec.do("vcache.key", root, req, func() { vcache.KeySamples(e.fp, rate, fin.Samples) })
		r.rec.end(root)
		r.finUS = append(r.finUS, us(r.rec.spans[finIdx].End-r.rec.spans[finIdx].Start))
		if fin.Decision.Adversarial != c.final.Adversarial || fin.Windows != c.finalN {
			e.rep.failure(fmt.Sprintf("clip %d: replay final adversarial=%v windows=%d, daemon %v windows=%d",
				ci, fin.Decision.Adversarial, fin.Windows, c.final.Adversarial, c.finalN))
		}
		texts := append([]string{fin.Decision.Transcriptions.Target}, fin.Decision.Transcriptions.Aux...)
		for i, eng := range r.engines {
			if texts[i] != c.final.Transcriptions[eng.Name()] {
				e.rep.failure(fmt.Sprintf("clip %d: replay final %s heard %q, daemon %q", ci, eng.Name(), texts[i], c.final.Transcriptions[eng.Name()]))
			}
		}
	}
	return nil
}

// report turns the spans into per-layer metrics and prints the layer
// table with its residual against the untraced end-to-end median.
func (r *replayer) report() {
	e := r.e
	self := selfTimes(r.rec.spans)
	perReq := map[string]map[int]time.Duration{} // layer -> request -> self time
	for i, s := range r.rec.spans {
		if s.Parent < 0 && !strings.HasPrefix(s.Name, "asr.stream_window.") {
			continue
		}
		name := s.Name
		if strings.HasPrefix(name, "asr.transcribe.") {
			continue // split into labels + decode below
		}
		if perReq[name] == nil {
			perReq[name] = map[int]time.Duration{}
		}
		perReq[name][s.Req] += self[i]
	}
	medianOf := func(layer string) (float64, int) {
		var xs []float64
		for _, d := range perReq[layer] {
			xs = append(xs, us(d))
		}
		return median(xs), len(xs)
	}
	setUS := func(metric, layer, call string) {
		v, n := medianOf(layer)
		note := fmt.Sprintf("%s, median self time over %d operations", call, n)
		if n == 0 {
			note = "not run on this workload"
		}
		e.rep.set(metric, v, "us", note)
	}
	setUS("audio.decode_us", "audio.decode", "ReadWAVPCM + PCM16.DecodeInto per request (AppendPCM16 per hop on streams)")
	setUS("vcache.key_us", "vcache.key", "KeyPCM16 (KeySamples on stream finals)")
	setUS("vcache.lookup_us", "vcache.lookup", "Cache.Get")
	setUS("dsp.mfcc_us", "dsp.mfcc", "FeatureCache.Extract, all front ends of a request")
	setUS("phonetic.encode_us", "phonetic.encode", "Method.Encode, all calls of a request")
	setUS("similarity.score_us", "similarity.score", "Method.Score, all calls of a request")
	setUS("classify.predict_us", "classify.predict", "Classifier.Predict / PredictPartial, all calls of a request")
	for _, en := range engineNames {
		med := func(m map[string][]float64, metric, unit, note string) {
			xs := m[en]
			if len(xs) == 0 {
				note = "not run on this workload"
			} else {
				note = fmt.Sprintf("%s, median over %d", note, len(xs))
			}
			e.rep.set(metric, median(xs), unit, note)
		}
		med(r.labels, "asr.labels_us."+en, "us", "TranscribeWithCache self time minus the decode probe (forward + argmax + gate)")
		med(r.decode, "asr.decode_us."+en, "us", "Decoder.Decode on the gated FrameLabels")
		med(r.allocs, "asr.allocs."+en, "count", "heap allocations per Transcribe, cold features")
		v, n := medianOf("asr.stream_window." + en)
		note := fmt.Sprintf("EnsembleStream.WindowText, median over %d windows", n)
		if n == 0 {
			note = "not run on this workload"
		}
		e.rep.set("asr.stream_window_us."+en, v, "us", note)
	}
	for _, en := range []string{"DS0", "DS1", "GCS"} {
		note := "computed from tensor sizes, not measured; mean per replayed clip"
		if len(r.macs[en]) == 0 {
			note = "not run on this workload"
		}
		e.rep.set("nn.macs."+en, mean(r.macs[en]), "count", note)
		e.rep.set("nn.bytes."+en, mean(r.bytes[en]), "bytes", note)
	}
	pushNote, finNote := fmt.Sprintf("Session.Push on window-emitting hops, median over %d", len(r.pushUS)), fmt.Sprintf("Session.Finish, median over %d", len(r.finUS))
	if len(r.pushUS) == 0 {
		pushNote, finNote = "not run on this workload", "not run on this workload"
	}
	e.rep.set("stream.push_us", median(r.pushUS), "us", pushNote)
	e.rep.set("stream.finish_us", median(r.finUS), "us", finNote)

	// The layer table, and the residual: the untraced end-to-end median
	// minus the median blocking-path layer total of one operation.
	var e2e float64
	var blocking []float64
	var opName string
	e2e = e.rawP50 * 1000
	if e.workload == "stream-live" {
		for _, c := range r.hopCost {
			blocking = append(blocking, us(c))
		}
		opName = "window-emitting hop (AppendPCM16 + Session.Push)"
	} else {
		for _, c := range r.costs {
			blocking = append(blocking, us(c.blocking))
		}
		opName = "request, blocking path"
	}
	sum := median(blocking)
	e.rep.set("server.residual_us", e2e-sum, "us", fmt.Sprintf("end-to-end median %.1f us minus layer total %.1f us per %s", e2e, sum, opName))

	layers := make([]string, 0, len(perReq))
	for l := range perReq {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("layer table, %s (self time per operation; ops = operations that ran the layer)\n", e.workload)
	fmt.Printf("  %-26s %8s %12s %12s\n", "layer", "ops", "median_us", "mean_us")
	for _, l := range layers {
		var xs []float64
		for _, d := range perReq[l] {
			xs = append(xs, us(d))
		}
		fmt.Printf("  %-26s %8d %12.1f %12.1f\n", l, len(xs), median(xs), mean(xs))
	}
	if e.workload != "stream-live" {
		for _, en := range engineNames {
			if len(r.labels[en]) > 0 {
				fmt.Printf("  %-26s %8d %12.1f\n", "asr.labels."+en, len(r.labels[en]), median(r.labels[en]))
				fmt.Printf("  %-26s %8d %12.1f\n", "asr.decode."+en, len(r.decode[en]), median(r.decode[en]))
			}
		}
	}
	fmt.Printf("  %-26s %8d %12.1f   (median per %s)\n", "layer total", len(blocking), sum, opName)
	fmt.Printf("  %-26s %8s %12.1f   (untraced latency median)\n", "end-to-end", "", e2e)
	fmt.Printf("  %-26s %8s %12.1f   (HTTP, admission, JSON, generator; negative = more concurrency than the model assumes)\n", "residual", "", e2e-sum)
}
