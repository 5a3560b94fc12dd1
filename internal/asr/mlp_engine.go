package asr

import (
	"fmt"
	"sync"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/nn"
)

// MLPEngine is a DeepSpeech-style acoustic model: context-stacked MFCC
// frames classified into phonemes by a feedforward network, decoded to
// words by the shared lexicon+LM decoder. It implements GradientModel, so
// it can serve as a white-box attack target: gradients flow from the
// framewise loss through the network and the entire MFCC front end back to
// the waveform samples.
type MLPEngine struct {
	ID         EngineID
	SampleRate int
	Context    int // stack +/-Context neighbouring frames
	MFCC       *dsp.MFCC
	Net        *nn.MLP
	Dec        *Decoder

	// qnet is the optional int8 inference form of Net (EnableQuantized).
	// Unexported on purpose: gob skips it, so persistence and model
	// fingerprints never see quantized state — it is derived at load.
	qnet  *nn.QuantizedMLP
	qpool *sync.Pool // *nn.QuantScratch
}

var (
	_ Recognizer       = (*MLPEngine)(nil)
	_ GradientModel    = (*MLPEngine)(nil)
	_ CacheTranscriber = (*MLPEngine)(nil)
)

// Name implements Recognizer.
func (e *MLPEngine) Name() string { return string(e.ID) }

// NumFrames implements GradientModel.
func (e *MLPEngine) NumFrames(numSamples int) int { return e.MFCC.NumFrames(numSamples) }

// FrameLogits returns per-frame phoneme logits.
func (e *MLPEngine) FrameLogits(clip *audio.Clip) ([][]float64, error) {
	raw, err := e.front().features(clip, nil)
	if err != nil {
		return nil, err
	}
	feats := dsp.StackContext(raw, e.Context)
	out := make([][]float64, len(feats))
	for t, f := range feats {
		logits, err := e.Net.Forward(f)
		if err != nil {
			return nil, fmt.Errorf("asr: %s frame %d: %w", e.ID, t, err)
		}
		out[t] = logits
	}
	return out, nil
}

func (e *MLPEngine) front() engineFront { return engineFront{e.ID, e.SampleRate, e.MFCC, e.Dec} }

// frameLabels computes per-frame argmax phonemes: the float path runs a
// fresh core over every frame; with EnableQuantized in effect the frames
// go through the int8 batched forward instead.
func (e *MLPEngine) frameLabels(clip *audio.Clip, cache *FeatureCache) ([]int, error) {
	feats, err := e.front().features(clip, cache)
	if err != nil {
		return nil, err
	}
	if e.qnet != nil {
		return e.frameLabelsQuantized(feats)
	}
	c := e.newCore(len(feats))
	if err := c.advance(feats, true); err != nil {
		return nil, err
	}
	return c.labels(feats, 0, len(feats))
}

// FrameLabels implements FrameLabeler: per-frame argmax phonemes.
func (e *MLPEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	return e.frameLabels(clip, nil)
}

// Transcribe implements Recognizer.
func (e *MLPEngine) Transcribe(clip *audio.Clip) (string, error) {
	return transcribe(e, clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *MLPEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	return transcribe(e, clip, cache)
}

// mlpCore is the MLP's frameCore. Frame t is classified from frames
// [t-Context, t+Context], so its label is committed once frame t+Context
// exists (the left edge clamps to frame 0); before that a window labels
// it provisionally, the right edge clamped to the frames heard so far.
type mlpCore struct {
	e         *MLPEngine
	committed []int
	stacked   []float64
	scratch   nn.MLPScratch
}

func (e *MLPEngine) newCore(frames int) *mlpCore {
	return &mlpCore{
		e:         e,
		committed: make([]int, 0, frames),
		stacked:   make([]float64, (2*e.Context+1)*e.MFCC.Config().NumCoeffs),
		scratch:   *e.Net.NewScratch(),
	}
}

// label classifies frame t, its context clamped to the frames in feats.
func (c *mlpCore) label(feats [][]float64, t int) (int, error) {
	dsp.StackFrame(feats, t, c.e.Context, c.stacked)
	logits, err := c.e.Net.ForwardScratch(c.stacked, &c.scratch)
	if err != nil {
		return 0, fmt.Errorf("asr: %s frame %d: %w", c.e.ID, t, err)
	}
	return nn.Argmax(logits), nil
}

func (c *mlpCore) advance(feats [][]float64, final bool) error {
	for t := len(c.committed); t < len(feats) && (final || t+c.e.Context < len(feats)); t++ {
		l, err := c.label(feats, t)
		if err != nil {
			return err
		}
		c.committed = append(c.committed, l)
	}
	return nil
}

func (c *mlpCore) labels(feats [][]float64, from, to int) ([]int, error) {
	n := len(c.committed)
	if to <= n {
		return c.committed[from:to], nil
	}
	out := append(make([]int, 0, to-from), c.committed[min(from, n):]...)
	for t := max(from, n); t < to; t++ {
		l, err := c.label(feats, t)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// TargetLoss implements GradientModel: the mean framewise cross-entropy of
// the clip against targetLabels, plus dLoss/dsample obtained by exact
// backpropagation through the network, context stacking, and MFCC
// extraction. The gradient path never goes through the feature cache.
func (e *MLPEngine) TargetLoss(clip *audio.Clip, targetLabels []int) (float64, []float64, error) {
	if err := validateClip(clip, e.SampleRate); err != nil {
		return 0, nil, err
	}
	raw, st, err := e.MFCC.ExtractWithState(clip.Samples)
	if err != nil {
		return 0, nil, fmt.Errorf("asr: %s feature extraction: %w", e.ID, err)
	}
	feats := dsp.StackContext(raw, e.Context)
	if len(targetLabels) != len(feats) {
		return 0, nil, fmt.Errorf("asr: %d target labels for %d frames", len(targetLabels), len(feats))
	}
	var total float64
	featGrads := make([][]float64, len(feats))
	for t, f := range feats {
		logits, cache, err := e.Net.ForwardCache(f)
		if err != nil {
			return 0, nil, err
		}
		loss, dLogits, err := nn.CrossEntropy(logits, targetLabels[t])
		if err != nil {
			return 0, nil, fmt.Errorf("asr: frame %d: %w", t, err)
		}
		total += loss
		dx, err := e.Net.Backward(cache, dLogits, nil)
		if err != nil {
			return 0, nil, err
		}
		featGrads[t] = dx
	}
	n := float64(len(feats))
	for t := range featGrads {
		for i := range featGrads[t] {
			featGrads[t][i] /= n
		}
	}
	mfccGrads := dsp.StackContextBackward(featGrads, e.Context, e.MFCC.Config().NumCoeffs)
	sampleGrad, err := e.MFCC.Backward(mfccGrads, st)
	if err != nil {
		return 0, nil, err
	}
	return total / n, sampleGrad, nil
}
