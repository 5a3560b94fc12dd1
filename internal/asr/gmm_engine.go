package asr

import (
	"fmt"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/hmm"
)

// GMMEngine is the Amazon-Transcribe stand-in: a classical GMM-HMM acoustic
// model. Per-phoneme Gaussian-mixture emitters score MFCC frames and a
// phoneme-level HMM with sticky self-transitions is decoded by Viterbi.
// Being non-neural, it shares no decision-surface structure with the
// gradient-based attack targets.
type GMMEngine struct {
	ID         EngineID
	SampleRate int
	MFCC       *dsp.MFCC
	Model      *hmm.HMM
	Dec        *Decoder
}

var (
	_ Recognizer       = (*GMMEngine)(nil)
	_ FrameLabeler     = (*GMMEngine)(nil)
	_ CacheTranscriber = (*GMMEngine)(nil)
)

// Name implements Recognizer.
func (e *GMMEngine) Name() string { return string(e.ID) }

func (e *GMMEngine) front() engineFront { return engineFront{e.ID, e.SampleRate, e.MFCC, e.Dec} }

// FrameLabels implements FrameLabeler: the Viterbi state path, which is by
// construction one state per phoneme.
func (e *GMMEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	return e.frameLabels(clip, nil)
}

func (e *GMMEngine) frameLabels(clip *audio.Clip, cache *FeatureCache) ([]int, error) {
	feats, err := e.front().features(clip, cache)
	if err != nil {
		return nil, err
	}
	c := e.newCore(len(feats))
	if err := c.advance(feats, true); err != nil {
		return nil, err
	}
	return c.labels(feats, 0, len(feats))
}

// Transcribe implements Recognizer.
func (e *GMMEngine) Transcribe(clip *audio.Clip) (string, error) {
	return transcribe(e, clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *GMMEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	return transcribe(e, clip, cache)
}

// gmmCore is the GMM-HMM's frameCore: a Viterbi lattice stepped once per
// frame. It needs no future context, yet commits nothing before the end
// of the clip: the labels of any range are the best path given every
// frame so far, backtraced on demand.
type gmmCore struct {
	e *GMMEngine
	v *hmm.ViterbiState
}

// newCore sizes the lattice's back-pointer slab for frames observations
// (0 when unknown).
func (e *GMMEngine) newCore(frames int) *gmmCore {
	return &gmmCore{e: e, v: e.Model.Stream(frames)}
}

func (c *gmmCore) advance(feats [][]float64, final bool) error {
	for t := c.v.Len(); t < len(feats); t++ {
		c.v.Step(feats[t])
	}
	return nil
}

func (c *gmmCore) labels(feats [][]float64, from, to int) ([]int, error) {
	path, _, err := c.v.Path()
	if err != nil {
		return nil, fmt.Errorf("asr: %s Viterbi: %w", c.e.ID, err)
	}
	return path[from:to], nil
}
