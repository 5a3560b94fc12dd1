package asr

import (
	"fmt"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
)

// EnsembleStream accepts one session's audio in arbitrary chunks, keeps
// one MFCC front end per distinct feature configuration, and advances
// each engine's frameCore (asr.go) as frames arrive. Batch transcription
// drives the very same core over the whole clip in one go, so a stream's
// final transcription is bit-identical to TranscribeWithCache on the
// whole clip, at any chunk schedule. Mid-stream, WindowText transcribes
// any sample window from the committed labels plus a provisional tail.
// The commitment rules live with the cores: MLP frames wait for their
// right context, RNN inputs for their delta frames, the GMM-HMM lattice
// commits only at the end, and the weak classifier commits immediately.
// Engines without a core (CTC, engines from other packages) fall back to
// batch transcription of the window or the whole clip.
//
// Streaming runs float64: the int8 kernels (EnableQuantized) are
// batch-only, chosen inside frameLabels and gated on transcription
// parity with float64 over an eval corpus.

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
	// windowText transcribes samples[a:b) provisionally.
	windowText(samples []float64, a, b int) (string, error)
	// finalText transcribes the whole clip; only valid after
	// advance(true). Bit-identical to the engine's batch Transcribe.
	finalText(samples []float64) (string, error)
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
	for i, eng := range engines {
		var (
			fe   engineFront
			core frameCore
		)
		switch e := eng.(type) {
		case *MLPEngine:
			fe, core = e.front(), e.newCore(0)
		case *RNNEngine:
			fe, core = e.front(), e.newCore(0)
		case *GMMEngine:
			fe, core = e.front(), e.newCore(0)
		case *WeakEngine:
			fe, core = e.front(), e.newCore(0)
		default:
			es.streams[i] = &batchStream{e: eng, rate: sampleRate}
			continue
		}
		if fe.rate != sampleRate {
			return nil, fmt.Errorf("asr: %s: engine expects %d Hz, stream is %d Hz", fe.id, fe.rate, sampleRate)
		}
		fp := fe.mfcc.Config().Fingerprint()
		f, ok := es.fronts[fp]
		if !ok {
			f = &streamFront{s: fe.mfcc.Stream()}
			es.fronts[fp] = f
			es.frontList = append(es.frontList, f)
		}
		es.streams[i] = &coreStream{engineFront: fe, front: f, core: core}
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
	return es.streams[i].windowText(es.samples, a, b)
}

// FinalText returns engine i's transcription of the whole streamed clip.
// Must be preceded by Finalize.
func (es *EnsembleStream) FinalText(i int) (string, error) {
	if !es.finalized {
		return "", fmt.Errorf("asr: FinalText before Finalize")
	}
	return es.streams[i].finalText(es.samples)
}

// coreStream drives one engine's frameCore over a shared front end.
type coreStream struct {
	engineFront
	front *streamFront
	core  frameCore
}

func (s *coreStream) advance(final bool) error { return s.core.advance(s.front.feats, final) }

// windowText decodes the frames whose start sample lies in [a,b), as far
// as the front end has emitted them.
func (s *coreStream) windowText(samples []float64, a, b int) (string, error) {
	hop := s.mfcc.Config().Hop
	first, end := (a+hop-1)/hop, min((b+hop-1)/hop, len(s.front.feats))
	if first >= end {
		return "", nil
	}
	labels, err := s.core.labels(s.front.feats, first, end)
	if err != nil {
		return "", err
	}
	return s.decode(labels, first, samples, a, b)
}

func (s *coreStream) finalText(samples []float64) (string, error) {
	labels, err := s.core.labels(s.front.feats, 0, len(s.front.feats))
	if err != nil {
		return "", err
	}
	return s.decode(labels, 0, samples, 0, len(samples))
}

// batchStream wraps engines without a frameCore (CTC, external
// implementations): windows are transcribed as standalone clips and the
// final pass re-transcribes the accumulated signal, which by construction
// matches the batch path.
type batchStream struct {
	e    Recognizer
	rate int
}

func (s *batchStream) advance(final bool) error { return nil }

func (s *batchStream) windowText(samples []float64, a, b int) (string, error) {
	return s.e.Transcribe(&audio.Clip{SampleRate: s.rate, Samples: samples[a:b]})
}

func (s *batchStream) finalText(samples []float64) (string, error) {
	return s.e.Transcribe(&audio.Clip{SampleRate: s.rate, Samples: samples})
}
