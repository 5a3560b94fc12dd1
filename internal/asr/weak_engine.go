package asr

import (
	"fmt"
	"math"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
)

// WeakEngine is the deliberately inaccurate auxiliary reproducing the
// paper's Kaldi observation (§V-E): "if the auxiliary ASR is not accurate
// in recognizing benign audios, the AE detection accuracy is bad". It is a
// nearest-centroid frame classifier over coarsely quantized MFCCs, trained
// on a tiny sample, with no sequence smoothing.
type WeakEngine struct {
	ID         EngineID
	SampleRate int
	MFCC       *dsp.MFCC
	Centroids  [][]float64 // one per phoneme id; nil if the phoneme was unseen
	Quant      float64     // feature quantization step (information loss)
	Dec        *Decoder
}

var (
	_ Recognizer       = (*WeakEngine)(nil)
	_ FrameLabeler     = (*WeakEngine)(nil)
	_ CacheTranscriber = (*WeakEngine)(nil)
)

// Name implements Recognizer.
func (e *WeakEngine) Name() string { return string(e.ID) }

func (e *WeakEngine) front() engineFront { return engineFront{e.ID, e.SampleRate, e.MFCC, e.Dec} }

// FrameLabels implements FrameLabeler.
func (e *WeakEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	return e.frameLabels(clip, nil)
}

func (e *WeakEngine) frameLabels(clip *audio.Clip, cache *FeatureCache) ([]int, error) {
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
func (e *WeakEngine) Transcribe(clip *audio.Clip) (string, error) {
	return transcribe(e, clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *WeakEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	return transcribe(e, clip, cache)
}

// weakCore is the weak engine's frameCore: a per-frame classifier, so
// every frame is committed as soon as it exists.
type weakCore struct {
	e         *WeakEngine
	committed []int
	q         []float64 // the quantized frame, reused
}

func (e *WeakEngine) newCore(frames int) *weakCore {
	return &weakCore{e: e, committed: make([]int, 0, frames), q: make([]float64, e.MFCC.Config().NumCoeffs)}
}

func (c *weakCore) advance(feats [][]float64, final bool) error {
	e := c.e
	for t := len(c.committed); t < len(feats); t++ {
		f := feats[t]
		q := c.q[:len(f)]
		for i, v := range f {
			if e.Quant > 0 {
				q[i] = math.Round(v/e.Quant) * e.Quant
			} else {
				q[i] = v
			}
		}
		best, bestDist := -1, math.Inf(1)
		for ph, cen := range e.Centroids {
			if cen == nil {
				continue
			}
			var dist float64
			for i := range q {
				d := q[i] - cen[i]
				dist += d * d
			}
			if dist < bestDist {
				best, bestDist = ph, dist
			}
		}
		if best < 0 {
			return fmt.Errorf("asr: %s has no trained centroids", e.ID)
		}
		c.committed = append(c.committed, best)
	}
	return nil
}

func (c *weakCore) labels(feats [][]float64, from, to int) ([]int, error) {
	return c.committed[from:to], nil
}
