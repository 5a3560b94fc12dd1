package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"sync"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/obs"
	"mvpears/internal/obs/drift"
	"mvpears/internal/vcache"
)

// writeJSON renders v with the given status. Encoding into a buffer first
// is unnecessary: the values are small and fully in-memory.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders a JSON error body. The request ID was placed on the
// response header by the instrumentation middleware before the handler
// ran, so every error path — 4xx, 429, 5xx — can echo it in the body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorJSON{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get("X-Request-ID"),
	})
}

// explainRequested reports whether the request asked for a verdict
// explanation (?explain=1; any value but "0"/"false" counts).
func explainRequested(r *http.Request) bool {
	v := r.URL.Query().Get("explain")
	return v != "" && v != "0" && v != "false"
}

// decodeStatus maps a WAV decode failure to its HTTP status.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.Is(err, audio.ErrTooLarge) || errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// scratchPool recycles WAV payload buffers across requests: the serving
// hot path reads each upload into a pooled buffer, fingerprints it, and —
// on a cache hit — answers without ever converting to float64 samples.
var scratchPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 64<<10); return &b },
}

func getScratch() *[]byte { return scratchPool.Get().(*[]byte) }

func putScratch(b *[]byte) { scratchPool.Put(b) }

// readPCM structurally decodes one size-limited WAV stream into the
// pooled scratch buffer, without float conversion. The scratch pointer is
// updated to the (possibly grown) payload buffer so the pool keeps it.
func (s *Server) readPCM(r io.Reader, scratch *[]byte) (audio.PCM16, error) {
	pcm, err := audio.ReadWAVPCM(r, s.cfg.MaxUploadBytes, (*scratch)[:0])
	if err != nil {
		return audio.PCM16{}, err
	}
	*scratch = pcm.Data
	if pcm.NumSamples() == 0 {
		return audio.PCM16{}, fmt.Errorf("%w: empty data chunk", audio.ErrMalformed)
	}
	return pcm, nil
}

// finishClip converts structurally decoded PCM into the backend's input:
// float samples at the backend's rate. This is the expensive half of
// decoding that cache hits skip entirely.
func (s *Server) finishClip(st *backendState, pcm audio.PCM16) (*mvpears.Clip, error) {
	clip, _, err := s.finishClipInto(st, pcm, nil)
	return clip, err
}

// samplePool recycles decoded float sample buffers across single-detect
// requests (the second-largest allocation on the miss path after the
// feature matrices). Batch parts keep plain decoding: their clips live
// inside a batch job whose lifetime is harder to pin down.
var samplePool = sync.Pool{
	New: func() any { b := make([]float64, 0, 8<<10); return &b },
}

// finishClipInto is finishClip decoding into buf (may be nil). It reports
// whether the returned clip's samples alias buf — false when the clip was
// resampled, in which case buf is already dead by return time.
func (s *Server) finishClipInto(st *backendState, pcm audio.PCM16, buf []float64) (*mvpears.Clip, bool, error) {
	clip := pcm.DecodeInto(buf)
	if rate := st.backend.SampleRate(); clip.SampleRate != rate {
		var err error
		clip, err = clip.Resample(rate)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", audio.ErrMalformed, err)
		}
		return clip, false, nil
	}
	return clip, buf != nil, nil
}

// cacheKey derives the verdict-cache key for one upload ("" when caching
// is off). The key covers the model fingerprint plus the original
// (pre-resample) rate and canonical PCM content, which deterministically
// decide the pipeline input.
func (s *Server) cacheKey(st *backendState, pcm audio.PCM16) string {
	if s.vc == nil {
		return ""
	}
	return vcache.KeyPCM16(st.modelFP, pcm.SampleRate, pcm.Data)
}

// detectionSize approximates one cached verdict's resident bytes for the
// cache's byte bound: key, scores, transcriptions, explanation (when the
// detection ran under an explain request), struct overhead.
func detectionSize(key string, det *mvpears.Detection) int64 {
	size := int64(len(key)) + 128
	size += int64(len(det.Scores)) * 8
	for k, v := range det.Transcriptions {
		size += int64(len(k)+len(v)) + 32
	}
	if exp := det.Explanation; exp != nil {
		size += int64(len(exp.Method)) + 96
		for _, e := range append([]mvpears.EngineEvidence{exp.Target}, exp.Auxiliaries...) {
			size += int64(len(e.Engine)+len(e.Transcription)+len(e.Phonetic)) + 48
		}
	}
	return size
}

// submit runs fn on the worker pool under the per-request deadline and
// translates admission / deadline failures into HTTP responses. It
// reports whether fn completed; on false the response has been written.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context)) bool {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	err := s.pool.Do(ctx, fn)
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrQueueFull):
		s.rejectedTotal.With(rejectQueueFull).Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
	case errors.Is(err, ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "detection exceeded the %v request deadline", s.cfg.RequestTimeout)
	default: // context.Canceled: the client is gone, best-effort status
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	}
	return false
}

// countVerdict records one served verdict and returns its wire string.
// It also feeds the verdict-quality SLO (a verdict served while any
// drift family is tripped spends quality budget) and the verdict
// base-rate drift family.
func (s *Server) countVerdict(det *mvpears.Detection) string {
	verdict := VerdictBenign
	if det.Adversarial {
		verdict = VerdictAdversarial
	}
	s.detectionsTotal.With(verdict).Inc()
	s.sloVerdicts.Add(1)
	if s.driftMon.AnyDrifted() {
		s.sloVerdictsDrifted.Add(1)
	}
	s.driftMon.ObserveEvent("adversarial_rate", det.Adversarial)
	return verdict
}

// observe records a freshly computed verdict: the verdict count, the
// per-stage timings, and the per-auxiliary similarity-score distributions.
// Cached, flight-shared and remotely-answered verdicts count only the
// verdict — their stage cost was paid (and observed) once, by the replica
// and request that actually ran the detection, and re-observing their
// scores would weight the similarity distributions by request popularity
// instead of by content.
func (s *Server) observe(st *backendState, det *mvpears.Detection) string {
	verdict := s.countVerdict(det)
	s.observeDetection(st, det)
	return verdict
}

// observeDetection records one fresh detection's stage timings, cascade
// behavior and similarity-score distributions — without counting a served
// verdict. The cluster owner path uses it directly: a detection run on
// behalf of a peer is observed where it ran, but the verdict is counted
// where it is served.
func (s *Server) observeDetection(st *backendState, det *mvpears.Detection) {
	s.stageSeconds.With("recognition").Observe(det.Timing.Recognition.Seconds())
	s.stageSeconds.With("similarity").Observe(det.Timing.Similarity.Seconds())
	s.stageSeconds.With("classify").Observe(det.Timing.Classify.Seconds())
	casc := det.Cascade
	if casc != nil {
		s.cascadeEnginesRun.Observe(float64(len(casc.EnginesRun)))
		if casc.ShortCircuit {
			s.cascadeShortCircuits.Inc()
		}
		if casc.SampledFull {
			s.cascadeSampledFull.Inc()
		}
		s.driftMon.ObserveEvent("short_circuit_rate", casc.ShortCircuit)
	}
	aux := st.auxNames
	min, observed := 1.0, 0
	for i, score := range det.Scores {
		// Imputed dimensions hold benign fill means, not measurements —
		// feeding them into the similarity distributions would fabricate
		// perfectly-benign-looking scores for engines that never ran.
		if casc != nil && i < len(casc.Imputed) && casc.Imputed[i] {
			continue
		}
		observed++
		if i < len(aux) {
			s.engineSimilarity.With(aux[i]).Observe(score)
			s.driftMon.ObserveScore("engine:"+aux[i], score)
		}
		if score < min {
			min = score
		}
	}
	if observed > 0 {
		s.minSimilarity.Observe(min)
		s.driftMon.ObserveScore("min_score", min)
	}
}

// observeTrace feeds the request's pipeline spans into the stage and
// engine histogram families, and forwards per-engine durations to the
// backend's cost observer so the cascade scheduler sees production
// latency, not just boot-time calibration. Called once per request that
// ran its own detection work (so cache hits keep costing zero
// observations).
func (s *Server) observeTrace(st *backendState, t *obs.Trace) {
	for _, sp := range t.Spans() {
		if sp.Engine != "" {
			s.engineSeconds.With(sp.Engine).Observe(sp.Dur.Seconds())
			if st.costObserver != nil {
				st.costObserver.ObserveEngineCost(sp.Engine, sp.Dur)
			}
			continue
		}
		s.pipelineSeconds.With(sp.Stage).Observe(sp.Dur.Seconds())
	}
}

// minScore returns the smallest auxiliary score and its engine name.
func minScore(scores []float64, aux []string) (string, float64) {
	engine, min := "", 1.0
	for i, score := range scores {
		if score <= min {
			min = score
			if i < len(aux) {
				engine = aux[i]
			}
		}
	}
	return engine, min
}

// audit appends one adversarial verdict to the audit sink (when enabled).
func (s *Server) audit(st *backendState, t *obs.Trace, route, file string, det *mvpears.Detection, verdict string, cached bool) {
	if s.cfg.Audit == nil || !det.Adversarial {
		return
	}
	aux := st.auxNames
	minEngine, min := minScore(det.Scores, aux)
	err := s.cfg.Audit.Write(obs.AuditEntry{
		Time:           time.Now().UTC(),
		RequestID:      t.ID(),
		Route:          route,
		File:           file,
		Verdict:        verdict,
		Scores:         det.Scores,
		MinScore:       min,
		MinEngine:      minEngine,
		Transcriptions: det.Transcriptions,
		Cached:         cached,
	})
	if err != nil {
		s.cfg.Logger.Printf("mvpearsd: audit sink: %v", err)
	}
}

// explanationFor resolves a verdict explanation for the response: the one
// computed with the detection when present, otherwise derived after the
// fact (cache hits, shared flights) via the backend's Explainer.
func (s *Server) explanationFor(st *backendState, det *mvpears.Detection) *ExplanationJSON {
	exp := det.Explanation
	if exp == nil {
		if ex, ok := st.backend.(Explainer); ok {
			exp = ex.Explain(det)
		}
	}
	return NewExplanationJSON(exp)
}

// detectHow classifies how one /v1/detect request got its verdict.
type detectHow int

const (
	// howFresh: this request ran the detection on this replica.
	howFresh detectHow = iota
	// howCached: answered from the local verdict cache.
	howCached
	// howShared: joined a concurrent local request's in-flight detection.
	howShared
	// howRemoteHit: the key's owning replica answered from its cache.
	howRemoteHit
	// howRemoteFresh: the detection ran on another replica (forwarded to
	// the owner, or a hedged dispatch won the race).
	howRemoteFresh
)

// fresh reports whether this replica ran a detection for this request
// (the only case that observes stage timings and engine spans).
func (h detectHow) fresh() bool { return h == howFresh }

// cachedOnWire is the response's Cached flag: the verdict was served
// without running a fresh detection anywhere for this request.
func (h detectHow) cachedOnWire() bool {
	return h == howCached || h == howShared || h == howRemoteHit
}

// remote reports whether another replica answered.
func (h detectHow) remote() bool { return h == howRemoteHit || h == howRemoteFresh }

// serveDetection writes one 200 verdict response. how drives the metric
// and annotation split: a fresh verdict is observed with stage timings
// and span histograms, everything else only counts its verdict (the cost
// was observed by whichever request — and replica — ran the detection).
func (s *Server) serveDetection(st *backendState, w http.ResponseWriter, r *http.Request, det *mvpears.Detection, how detectHow) {
	trace := obs.TraceFrom(r.Context())
	var verdict string
	if how.fresh() {
		verdict = s.observe(st, det)
		s.observeTrace(st, trace)
		if c := det.Cascade; c != nil && c.ShortCircuit {
			trace.SetShortCircuit()
		}
	} else {
		verdict = s.countVerdict(det)
	}
	if how.remote() {
		trace.SetRemote()
	}
	if how == howRemoteHit {
		trace.SetCached()
	}
	trace.SetVerdict(verdict)
	s.audit(st, trace, "detect", "", det, verdict, !how.fresh())
	out := NewDetectionJSON(det, st.auxNames)
	out.Cached = how.cachedOnWire()
	out.Remote = how.remote()
	if explainRequested(r) {
		out.Explanation = s.explanationFor(st, det)
	}
	writeJSON(w, http.StatusOK, out)
}

// detect runs one detection under the request deadline, collapsing
// concurrent duplicates onto a single worker-pool job when the verdict
// cache is enabled (the leader also populates the cache). With the
// cluster tier enabled and fwd non-nil, the flight leader first tries
// the key's owning replica (clusterFetch) and hedges a slow self-owned
// detection to an idle peer (hedgedRun) — so the whole fleet's duplicate
// storm for one key collapses onto a single detection at the owner.
func (s *Server) detect(st *backendState, rctx context.Context, key string, clip *mvpears.Clip, release func(), fwd *forwardPCM) (det *mvpears.Detection, how detectHow, err error) {
	ctx, cancel := context.WithTimeout(rctx, s.cfg.RequestTimeout)
	defer cancel()
	run := func(ctx context.Context) (*mvpears.Detection, error) {
		var det *mvpears.Detection
		var detErr error
		runStart := time.Now()
		if err := s.pool.Do(ctx, func(jctx context.Context) {
			// The job owns the clip: a caller that times out after
			// enqueueing has already returned by the time the worker
			// runs, so the pooled samples can only be recycled here.
			if release != nil {
				defer release()
			}
			det, detErr = st.backend.DetectCtx(jctx, clip)
		}); err != nil {
			if release != nil && (errors.Is(err, ErrQueueFull) || errors.Is(err, ErrPoolClosed)) {
				release() // never enqueued: the clip was never shared
			}
			return nil, err
		}
		if detErr == nil {
			// Feed the hedge budget: expected detection cost tracks what
			// detections actually cost here, in production.
			s.observeDetectCost(time.Since(runStart))
		}
		return det, detErr
	}
	if s.vc == nil {
		det, err := run(ctx)
		return det, howFresh, err
	}
	leaderHow := howFresh
	det, shared, err := s.flight.Do(ctx, key, func(fctx context.Context) (*mvpears.Detection, error) {
		// The flight's context is deliberately detached from any single
		// caller's cancellation; re-attach this request's observability
		// values (trace, explain flag) so the leader's detection records
		// spans — and an explanation — for the request that led it.
		fctx = obs.Transfer(fctx, rctx)
		if fwd != nil {
			if rdet, rhow, ok := s.clusterFetch(fctx, key, fwd); ok {
				leaderHow = rhow
				if release != nil {
					// The clip was never enqueued: only this goroutine
					// ever saw the samples.
					release()
				}
				return rdet, nil
			}
		}
		det, remote, err := s.hedgedRun(fctx, st, key, fwd, run)
		if err != nil {
			return nil, err
		}
		if remote {
			// The hedged peer answered first. The clip's release stays
			// with the (cancelled) local job per the ownership rule above.
			leaderHow = howRemoteFresh
		}
		s.vc.Put(key, det, detectionSize(key, det))
		return det, nil
	})
	if shared {
		obs.TraceFrom(rctx).SetCollapsed()
		if release != nil {
			// A follower's fn — and so its run and its clip — was never
			// touched by the flight; only its own goroutine ever saw the
			// samples, so they can be recycled unconditionally.
			release()
		}
		return det, howShared, err
	}
	return det, leaderHow, err
}

// writeDetectError maps a detection failure to its HTTP response. A panic
// recovered inside a flight is re-raised here so the middleware's panic
// accounting and 500 behavior are identical with and without collapsing.
func (s *Server) writeDetectError(w http.ResponseWriter, err error) {
	var pe *vcache.PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		s.rejectedTotal.With(rejectQueueFull).Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
	case errors.Is(err, ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "detection exceeded the %v request deadline", s.cfg.RequestTimeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		writeError(w, http.StatusInternalServerError, "detection failed: %v", err)
	}
}

// handleDetect serves POST /v1/detect: the request body is one WAV file,
// the response one DetectionJSON. The serving path is content-addressed:
// the upload is fingerprinted from its raw PCM, a cache hit answers with
// zero detection work (no float decode, no worker-pool admission), and
// concurrent misses for the same fingerprint collapse onto one detection.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST with a WAV body")
		return
	}
	st := s.state()
	trace := obs.TraceFrom(r.Context())
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes+1024) // payload + header slack
	scratch := getScratch()
	defer putScratch(scratch)
	decodeStart := time.Now()
	pcm, err := s.readPCM(body, scratch)
	if err != nil {
		writeError(w, decodeStatus(err), "decoding WAV: %v", err)
		return
	}
	key := s.cacheKey(st, pcm)
	if key != "" {
		// Query-pattern watch: a coarse perceptual key colliding with an
		// earlier upload whose exact key differs is the mutate-one-sample
		// probing signature. Observed before the cache lookup so exact
		// retries (which hit the cache) dilute the suspicion window
		// honestly. Requires the cache only for the exact content key.
		s.probe.Observe(drift.CoarseKey(pcm.Data), key)
	}
	if key != "" {
		if det, ok := s.vc.Get(key); ok {
			trace.SetCached()
			s.serveDetection(st, w, r, det, howCached)
			return
		}
	}
	// Snapshot the PCM for the cluster tier before the pooled scratch can
	// be recycled: a forward or hedge may outlive this handler's buffers.
	fwd := s.newForwardPCM(key, pcm)
	samples := samplePool.Get().(*[]float64)
	clip, pooled, err := s.finishClipInto(st, pcm, (*samples)[:0])
	if err != nil {
		samplePool.Put(samples)
		writeError(w, decodeStatus(err), "decoding WAV: %v", err)
		return
	}
	var release func()
	if pooled {
		release = func() { *samples = clip.Samples[:0]; samplePool.Put(samples) }
	} else {
		samplePool.Put(samples)
	}
	trace.Record(obs.StageDecode, "", decodeStart)
	rctx := r.Context()
	if explainRequested(r) {
		rctx = obs.WithExplain(rctx)
	}
	det, how, err := s.detect(st, rctx, key, clip, release, fwd)
	if err != nil {
		s.writeDetectError(w, err)
		return
	}
	s.serveDetection(st, w, r, det, how)
}

// handleDetectBatch serves POST /v1/detect/batch: a multipart/form-data
// body whose file parts are WAVs. Parts already in the verdict cache are
// answered from it; the remaining misses form one admission-queue job
// routed through the backend's batch API, so a saturated server rejects
// the batch's detection work atomically with 429. Batch misses populate
// the cache but do not singleflight-collapse (a batch is one job; its
// members are not independent requests worth a flight each).
func (s *Server) handleDetectBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST with multipart WAV parts")
		return
	}
	st := s.state()
	trace := obs.TraceFrom(r.Context())
	explain := explainRequested(r)
	if explain {
		// The explain flag rides the request context into the batch job, so
		// fresh detections carry their explanations out of the backend.
		r = r.WithContext(obs.WithExplain(r.Context()))
	}
	// Bound the whole batch body (files * per-file limit, plus framing)
	// before the multipart reader takes ownership of it.
	total := s.cfg.MaxUploadBytes*int64(s.cfg.MaxBatchFiles) + 1<<20
	r.Body = http.MaxBytesReader(w, r.Body, total)
	mr, err := r.MultipartReader()
	if err != nil {
		writeError(w, http.StatusBadRequest, "expected multipart/form-data: %v", err)
		return
	}
	decodeStart := time.Now()

	var (
		names     []string
		pcms      []audio.PCM16
		scratches []*[]byte
	)
	defer func() {
		for _, b := range scratches {
			putScratch(b)
		}
	}()
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading multipart body: %v", err)
			return
		}
		name := partName(part)
		if len(pcms) >= s.cfg.MaxBatchFiles {
			part.Close()
			writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d files", s.cfg.MaxBatchFiles)
			return
		}
		scratch := getScratch()
		scratches = append(scratches, scratch)
		pcm, err := s.readPCM(part, scratch)
		part.Close()
		if err != nil {
			writeError(w, decodeStatus(err), "decoding %q: %v", name, err)
			return
		}
		names = append(names, name)
		pcms = append(pcms, pcm)
	}
	if len(pcms) == 0 {
		writeError(w, http.StatusBadRequest, "no WAV file parts in request")
		return
	}

	dets := make([]*mvpears.Detection, len(pcms))
	cached := make([]bool, len(pcms))
	keys := make([]string, len(pcms))
	var missIdx []int
	for i, pcm := range pcms {
		keys[i] = s.cacheKey(st, pcm)
		if keys[i] != "" {
			if det, ok := s.vc.Get(keys[i]); ok {
				dets[i] = det
				cached[i] = true
				continue
			}
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) > 0 {
		clips := make([]*mvpears.Clip, len(missIdx))
		for j, i := range missIdx {
			clip, err := s.finishClip(st, pcms[i])
			if err != nil {
				writeError(w, decodeStatus(err), "decoding %q: %v", names[i], err)
				return
			}
			clips[j] = clip
		}
		trace.Record(obs.StageDecode, "", decodeStart)
		var (
			missDets []*mvpears.Detection
			detErr   error
		)
		if !s.submit(w, r, func(ctx context.Context) {
			missDets, detErr = st.backend.DetectBatchCtx(ctx, clips)
		}) {
			return
		}
		if detErr != nil {
			writeError(w, http.StatusInternalServerError, "batch detection failed: %v", detErr)
			return
		}
		for j, i := range missIdx {
			dets[i] = missDets[j]
			if keys[i] != "" {
				s.vc.Put(keys[i], missDets[j], detectionSize(keys[i], missDets[j]))
			}
		}
	}

	if len(missIdx) > 0 {
		s.observeTrace(st, trace)
	} else {
		trace.SetCached() // every part answered from the verdict cache
	}
	resp := BatchResponseJSON{Results: make([]FileDetectionJSON, len(dets))}
	aux := st.auxNames
	anyAdversarial := false
	for i, det := range dets {
		var verdict string
		if cached[i] {
			verdict = s.countVerdict(det)
		} else {
			verdict = s.observe(st, det)
		}
		if det.Adversarial {
			anyAdversarial = true
		}
		s.audit(st, trace, "detect_batch", names[i], det, verdict, cached[i])
		fd := FileDetectionJSON{File: names[i], DetectionJSON: NewDetectionJSON(det, aux)}
		fd.Cached = cached[i]
		if explain {
			fd.Explanation = s.explanationFor(st, det)
		}
		resp.Results[i] = fd
	}
	// The access log gets the batch's worst verdict.
	if anyAdversarial {
		trace.SetVerdict(VerdictAdversarial)
	} else {
		trace.SetVerdict(VerdictBenign)
	}
	writeJSON(w, http.StatusOK, resp)
}

// partName labels one multipart part by filename, falling back to the
// form name and then the part index-agnostic placeholder.
func partName(part *multipart.Part) string {
	if n := part.FileName(); n != "" {
		return n
	}
	if n := part.FormName(); n != "" {
		return n
	}
	return "unnamed"
}

// handleHealthz reports process liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 200 while serving, 503 once draining
// or while a hot model reload is loading its replacement artifact (the
// window a fleet load balancer should steer around; requests that do
// arrive still serve on the old model).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if s.reloadInProgress.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "reloading")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.Render(w); err != nil {
		s.cfg.Logger.Printf("mvpearsd: rendering metrics: %v", err)
	}
}
