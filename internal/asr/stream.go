package asr

import (
	"fmt"
	"math"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/hmm"
	"mvpears/internal/nn"
	"mvpears/internal/phoneme"
)

// This file is the frame-incremental counterpart of the clip-at-a-time
// engines: an EnsembleStream accepts audio in arbitrary chunks, advances
// every engine as far as its architecture allows, and can produce
// (a) provisional transcriptions of any sample window mid-stream and
// (b) final transcriptions that are bit-identical to TranscribeWithCache
// on the whole clip.
//
// The commitment rule per engine follows its future-context needs:
//
//   - MLP engines classify frame t from frames [t-Context, t+Context], so
//     label t is final once frame t+Context exists (left edge clamps to
//     frame 0, which always exists).
//   - RNN engines with deltas consume inputs built from frames t±2, so
//     input t is final once frame t+2 exists; the hidden state advances
//     only over final inputs, and provisional tails run on a copy.
//   - GMM engines have no future context: the Viterbi lattice advances
//     per frame, and a provisional path is a backtrace on demand.
//   - Weak engines are per-frame classifiers: final immediately.
//   - Anything else (CTC and external engines) falls back to batch
//     transcription of the window / whole clip.
//
// Streaming always runs float64 inference: the int8 path (EnableQuantized)
// is transcription-parity-gated for batch serving but is not part of the
// streamed contract.

// streamFront is one shared MFCC front end (engines with identical
// configurations share it, like FeatureCache does for batch).
type streamFront struct {
	s     *dsp.StreamingMFCC
	feats [][]float64 // every complete frame emitted so far
}

// EnsembleStream feeds one audio session through a set of engines
// incrementally. It is owned by one goroutine (the session's).
type EnsembleStream struct {
	rate    int
	samples []float64
	// fronts dedups MFCC front-ends by config fingerprint; frontList
	// holds the same fronts in registration order so the push/finalize
	// loops run deterministically (map order would pick which front's
	// error surfaces first).
	fronts    map[string]*streamFront
	frontList []*streamFront
	streams   []engineStream
	finalized bool
}

// engineStream is the per-engine incremental state.
type engineStream interface {
	// advance consumes newly available frames; with final=true the
	// tail frames are committed with end-of-clip clamping.
	advance(final bool) error
	// windowText transcribes the sample range [a,b) provisionally.
	windowText(a, b int) (string, error)
	// finalText transcribes the whole clip; only valid after
	// advance(true). Bit-identical to the engine's batch Transcribe.
	finalText() (string, error)
}

// NewEnsembleStream builds incremental state for the given engines. All
// engines must run at sampleRate (streaming does not resample).
func NewEnsembleStream(engines []Recognizer, sampleRate int) (*EnsembleStream, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("asr: ensemble stream needs at least one engine")
	}
	es := &EnsembleStream{
		rate:    sampleRate,
		fronts:  make(map[string]*streamFront),
		streams: make([]engineStream, len(engines)),
	}
	front := func(m *dsp.MFCC, engineRate int) (*streamFront, error) {
		if engineRate != sampleRate {
			return nil, fmt.Errorf("asr: engine expects %d Hz, stream is %d Hz", engineRate, sampleRate)
		}
		fp := m.Config().Fingerprint()
		if f, ok := es.fronts[fp]; ok {
			return f, nil
		}
		f := &streamFront{s: m.Stream()}
		es.fronts[fp] = f
		es.frontList = append(es.frontList, f)
		return f, nil
	}
	for i, eng := range engines {
		switch e := eng.(type) {
		case *MLPEngine:
			f, err := front(e.MFCC, e.SampleRate)
			if err != nil {
				return nil, fmt.Errorf("asr: %s: %w", e.ID, err)
			}
			es.streams[i] = &mlpStream{e: e, feed: es, front: f,
				stacked: make([]float64, (2*e.Context+1)*e.MFCC.Config().NumCoeffs),
				scratch: e.Net.NewScratch()}
		case *RNNEngine:
			f, err := front(e.MFCC, e.SampleRate)
			if err != nil {
				return nil, fmt.Errorf("asr: %s: %w", e.ID, err)
			}
			es.streams[i] = &rnnStream{e: e, feed: es, front: f,
				h: make([]float64, e.Net.Hidden)}
		case *GMMEngine:
			f, err := front(e.MFCC, e.SampleRate)
			if err != nil {
				return nil, fmt.Errorf("asr: %s: %w", e.ID, err)
			}
			es.streams[i] = &gmmStream{e: e, feed: es, front: f, v: e.Model.Stream()}
		case *WeakEngine:
			f, err := front(e.MFCC, e.SampleRate)
			if err != nil {
				return nil, fmt.Errorf("asr: %s: %w", e.ID, err)
			}
			es.streams[i] = &weakStream{e: e, feed: es, front: f}
		default:
			es.streams[i] = &batchStream{e: eng, feed: es}
		}
	}
	return es, nil
}

// NumEngines returns the engine count.
func (es *EnsembleStream) NumEngines() int { return len(es.streams) }

// Total returns the number of samples pushed so far.
func (es *EnsembleStream) Total() int { return len(es.samples) }

// Samples exposes the accumulated clip (the energy gate, the final
// verdict and the verdict-cache probe all need the whole signal). The
// slice is owned by the stream; callers must not mutate it.
func (es *EnsembleStream) Samples() []float64 { return es.samples }

// Push appends a chunk of audio and advances every engine as far as its
// commitment rule allows.
func (es *EnsembleStream) Push(chunk []float64) error {
	if es.finalized {
		return fmt.Errorf("asr: Push after Finalize on ensemble stream")
	}
	if len(chunk) == 0 {
		return nil
	}
	es.samples = append(es.samples, chunk...)
	for _, f := range es.frontList {
		rows, err := f.s.Push(chunk)
		if err != nil {
			return err
		}
		f.feats = append(f.feats, rows...)
	}
	for _, st := range es.streams {
		if err := st.advance(false); err != nil {
			return err
		}
	}
	return nil
}

// Finalize seals the stream: the zero-padded tail frames are emitted and
// every engine commits its remaining labels with end-of-clip clamping.
// Idempotent.
func (es *EnsembleStream) Finalize() error {
	if es.finalized {
		return nil
	}
	if len(es.samples) == 0 {
		return fmt.Errorf("asr: cannot finalize an empty stream")
	}
	for _, f := range es.frontList {
		tail, err := f.s.Flush()
		if err != nil {
			return err
		}
		f.feats = append(f.feats, tail...)
	}
	for _, st := range es.streams {
		if err := st.advance(true); err != nil {
			return err
		}
	}
	es.finalized = true
	return nil
}

// WindowText returns engine i's provisional transcription of the sample
// window [a,b). Only frames already complete participate; an empty window
// decodes to "".
func (es *EnsembleStream) WindowText(i, a, b int) (string, error) {
	if es.finalized {
		return "", fmt.Errorf("asr: WindowText after Finalize")
	}
	if a < 0 || b > len(es.samples) || a >= b {
		return "", fmt.Errorf("asr: window [%d,%d) out of range (have %d samples)", a, b, len(es.samples))
	}
	return es.streams[i].windowText(a, b)
}

// FinalText returns engine i's transcription of the whole streamed clip.
// Must be preceded by Finalize.
func (es *EnsembleStream) FinalText(i int) (string, error) {
	if !es.finalized {
		return "", fmt.Errorf("asr: FinalText before Finalize")
	}
	return es.streams[i].finalText()
}

// windowFrames maps the sample range [a,b) to the engine frame range
// [first,end): the frames whose start sample lies in the window, clamped
// to the frames emitted so far.
func windowFrames(a, b, hop, emitted int) (first, end int) {
	first = (a + hop - 1) / hop
	end = (b + hop - 1) / hop
	if end > emitted {
		end = emitted
	}
	return first, end
}

// decodeWindowLabels gates and decodes labels for frames
// [firstFrame, firstFrame+len(labels)) against the window's own energy:
// frames whose RMS is below ratio times the window RMS are forced to
// silence (the absolute-index analogue of ApplyEnergyGate — engine frame
// geometries differ, so gating must index the shared sample buffer, not a
// window-relative slice).
func decodeWindowLabels(labels []int, firstFrame int, mc dsp.MFCCConfig, dec *Decoder, samples []float64, a, b int, id EngineID) (string, error) {
	if len(labels) == 0 {
		return "", nil
	}
	var total float64
	for _, v := range samples[a:b] {
		total += v * v
	}
	windowRMS := total / float64(b-a)
	threshold := energyGateRatio * energyGateRatio * windowRMS
	sil := phoneme.SilIndex()
	gated := make([]int, len(labels))
	copy(gated, labels)
	for k := range gated {
		start := (firstFrame + k) * mc.Hop
		if start >= len(samples) {
			gated[k] = sil
			continue
		}
		end := start + mc.FrameLen
		if end > len(samples) {
			end = len(samples)
		}
		var e float64
		for _, v := range samples[start:end] {
			e += v * v
		}
		if e/float64(end-start) < threshold {
			gated[k] = sil
		}
	}
	text, err := dec.Decode(gated)
	if err != nil {
		return "", fmt.Errorf("asr: %s decoding: %w", id, err)
	}
	return text, nil
}

// finalizeLabels applies the whole-clip energy gate and word decode —
// exactly the tail of TranscribeWithCache.
func finalizeLabels(labels []int, mc dsp.MFCCConfig, dec *Decoder, samples []float64, id EngineID) (string, error) {
	labels = ApplyEnergyGate(labels, samples, mc.FrameLen, mc.Hop, energyGateRatio)
	text, err := dec.Decode(labels)
	if err != nil {
		return "", fmt.Errorf("asr: %s decoding: %w", id, err)
	}
	return text, nil
}

// --- MLP -------------------------------------------------------------

type mlpStream struct {
	e       *MLPEngine
	feed    *EnsembleStream
	front   *streamFront
	labels  []int // committed labels
	stacked []float64
	scratch *nn.MLPScratch
}

func (s *mlpStream) advance(final bool) error {
	n := len(s.front.feats)
	for t := len(s.labels); t < n; t++ {
		if !final && t+s.e.Context >= n {
			break
		}
		dsp.StackFrame(s.front.feats, t, s.e.Context, s.stacked)
		logits, err := s.e.Net.ForwardScratch(s.stacked, s.scratch)
		if err != nil {
			return fmt.Errorf("asr: %s frame %d: %w", s.e.ID, t, err)
		}
		s.labels = append(s.labels, nn.Argmax(logits))
	}
	return nil
}

// labelsRange returns labels for frames [from,to): committed ones as-is,
// the tail recomputed provisionally with the current right-edge clamp.
func (s *mlpStream) labelsRange(from, to int) ([]int, error) {
	out := make([]int, 0, to-from)
	c := len(s.labels)
	for t := from; t < to && t < c; t++ {
		out = append(out, s.labels[t])
	}
	for t := max(from, c); t < to; t++ {
		dsp.StackFrame(s.front.feats, t, s.e.Context, s.stacked)
		logits, err := s.e.Net.ForwardScratch(s.stacked, s.scratch)
		if err != nil {
			return nil, fmt.Errorf("asr: %s frame %d: %w", s.e.ID, t, err)
		}
		out = append(out, nn.Argmax(logits))
	}
	return out, nil
}

func (s *mlpStream) windowText(a, b int) (string, error) {
	mc := s.e.MFCC.Config()
	first, end := windowFrames(a, b, mc.Hop, len(s.front.feats))
	if first >= end {
		return "", nil
	}
	labels, err := s.labelsRange(first, end)
	if err != nil {
		return "", err
	}
	return decodeWindowLabels(labels, first, mc, s.e.Dec, s.feed.samples, a, b, s.e.ID)
}

func (s *mlpStream) finalText() (string, error) {
	return finalizeLabels(s.labels, s.e.MFCC.Config(), s.e.Dec, s.feed.samples, s.e.ID)
}

// --- RNN -------------------------------------------------------------

type rnnStream struct {
	e      *RNNEngine
	feed   *EnsembleStream
	front  *streamFront
	labels []int     // committed labels
	h      []float64 // hidden state after the last committed input
	in     []float64 // network input buffer, reused frame to frame
}

// input builds the network input for frame t, replicating the batch
// feature construction (MFCC row plus the width-2 regression deltas with
// edges clamped to the current frame count n). The result aliases a
// buffer the next call overwrites.
func (s *rnnStream) input(t, n int) []float64 {
	feats := s.front.feats
	if !s.e.UseDeltas {
		return feats[t]
	}
	f := feats[t]
	if cap(s.in) < 2*len(f) {
		s.in = make([]float64, 2*len(f))
	}
	v := s.in[:2*len(f)]
	dsp.DeltaFrame(feats[:n], t, 2, v[copy(v, f):])
	return v
}

func (s *rnnStream) advance(final bool) error {
	n := len(s.front.feats)
	nh := make([]float64, s.e.Net.Hidden)
	y := make([]float64, s.e.Net.Out)
	for t := len(s.labels); t < n; t++ {
		// A delta input reads frames t+1 and t+2; until they exist the
		// clamped value is provisional, so the hidden state must wait.
		if !final && s.e.UseDeltas && t+2 >= n {
			break
		}
		if err := s.e.Net.StepInto(s.input(t, n), s.h, nh, y); err != nil {
			return fmt.Errorf("asr: %s forward: %w", s.e.ID, err)
		}
		s.h, nh = nh, s.h
		s.labels = append(s.labels, nn.Argmax(y))
	}
	return nil
}

func (s *rnnStream) labelsRange(from, to int) ([]int, error) {
	out := make([]int, 0, to-from)
	c := len(s.labels)
	for t := from; t < to && t < c; t++ {
		out = append(out, s.labels[t])
	}
	if to <= c {
		return out, nil
	}
	// Provisional tail: run the recurrence on a copy of the hidden state
	// from the first uncommitted input onward.
	n := len(s.front.feats)
	h := append([]float64(nil), s.h...)
	nh := make([]float64, s.e.Net.Hidden)
	y := make([]float64, s.e.Net.Out)
	for t := c; t < to; t++ {
		if err := s.e.Net.StepInto(s.input(t, n), h, nh, y); err != nil {
			return nil, fmt.Errorf("asr: %s forward: %w", s.e.ID, err)
		}
		h, nh = nh, h
		if t >= from {
			out = append(out, nn.Argmax(y))
		}
	}
	return out, nil
}

func (s *rnnStream) windowText(a, b int) (string, error) {
	mc := s.e.MFCC.Config()
	first, end := windowFrames(a, b, mc.Hop, len(s.front.feats))
	if first >= end {
		return "", nil
	}
	labels, err := s.labelsRange(first, end)
	if err != nil {
		return "", err
	}
	return decodeWindowLabels(labels, first, mc, s.e.Dec, s.feed.samples, a, b, s.e.ID)
}

func (s *rnnStream) finalText() (string, error) {
	return finalizeLabels(s.labels, s.e.MFCC.Config(), s.e.Dec, s.feed.samples, s.e.ID)
}

// --- GMM -------------------------------------------------------------

type gmmStream struct {
	e     *GMMEngine
	feed  *EnsembleStream
	front *streamFront
	v     *hmm.ViterbiState
}

func (s *gmmStream) advance(final bool) error {
	for t := s.v.Len(); t < len(s.front.feats); t++ {
		s.v.Step(s.front.feats[t])
	}
	return nil
}

func (s *gmmStream) windowText(a, b int) (string, error) {
	mc := s.e.MFCC.Config()
	first, end := windowFrames(a, b, mc.Hop, s.v.Len())
	if first >= end {
		return "", nil
	}
	// The provisional alignment is the best path given everything heard
	// so far, backtraced on demand.
	path, _, err := s.v.Path()
	if err != nil {
		return "", fmt.Errorf("asr: %s Viterbi: %w", s.e.ID, err)
	}
	return decodeWindowLabels(path[first:end], first, mc, s.e.Dec, s.feed.samples, a, b, s.e.ID)
}

func (s *gmmStream) finalText() (string, error) {
	path, _, err := s.v.Path()
	if err != nil {
		return "", fmt.Errorf("asr: %s Viterbi: %w", s.e.ID, err)
	}
	return finalizeLabels(path, s.e.MFCC.Config(), s.e.Dec, s.feed.samples, s.e.ID)
}

// --- Weak ------------------------------------------------------------

type weakStream struct {
	e      *WeakEngine
	feed   *EnsembleStream
	front  *streamFront
	labels []int
}

func (s *weakStream) advance(final bool) error {
	e := s.e
	q := make([]float64, e.MFCC.Config().NumCoeffs)
	for t := len(s.labels); t < len(s.front.feats); t++ {
		f := s.front.feats[t]
		q = q[:len(f)]
		for i, v := range f {
			if e.Quant > 0 {
				q[i] = math.Round(v/e.Quant) * e.Quant
			} else {
				q[i] = v
			}
		}
		best, bestDist := -1, math.Inf(1)
		for ph, c := range e.Centroids {
			if c == nil {
				continue
			}
			var dist float64
			for i := range q {
				d := q[i] - c[i]
				dist += d * d
			}
			if dist < bestDist {
				best, bestDist = ph, dist
			}
		}
		if best < 0 {
			return fmt.Errorf("asr: %s has no trained centroids", e.ID)
		}
		s.labels = append(s.labels, best)
	}
	return nil
}

func (s *weakStream) windowText(a, b int) (string, error) {
	mc := s.e.MFCC.Config()
	first, end := windowFrames(a, b, mc.Hop, len(s.labels))
	if first >= end {
		return "", nil
	}
	return decodeWindowLabels(s.labels[first:end], first, mc, s.e.Dec, s.feed.samples, a, b, s.e.ID)
}

func (s *weakStream) finalText() (string, error) {
	return finalizeLabels(s.labels, s.e.MFCC.Config(), s.e.Dec, s.feed.samples, s.e.ID)
}

// --- batch fallback --------------------------------------------------

// batchStream wraps engines without an incremental form (CTC, external
// implementations): windows are transcribed as standalone clips and the
// final pass re-transcribes the accumulated signal, which by construction
// matches the batch path.
type batchStream struct {
	e    Recognizer
	feed *EnsembleStream
}

func (s *batchStream) advance(final bool) error { return nil }

func (s *batchStream) windowText(a, b int) (string, error) {
	clip := &audio.Clip{SampleRate: s.feed.rate, Samples: s.feed.samples[a:b]}
	return s.e.Transcribe(clip)
}

func (s *batchStream) finalText() (string, error) {
	clip := &audio.Clip{SampleRate: s.feed.rate, Samples: s.feed.samples}
	return s.e.Transcribe(clip)
}
