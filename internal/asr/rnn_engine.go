package asr

import (
	"fmt"
	"sync"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/nn"
)

// RNNEngine is the Google-Cloud-Speech stand-in: an Elman recurrent
// acoustic model over a deliberately different feature front end (more
// filters/cepstra, Hann window, different frame geometry) so that its
// decision surface is uncorrelated with the MLP engines'.
type RNNEngine struct {
	ID         EngineID
	SampleRate int
	MFCC       *dsp.MFCC
	UseDeltas  bool
	Net        *nn.RNN
	Dec        *Decoder

	// qnet is the optional int8 inference form of Net (EnableQuantized).
	// Unexported on purpose: gob skips it, so persistence and model
	// fingerprints never see quantized state — it is derived at load.
	qnet  *nn.QuantizedRNN
	qpool *sync.Pool // *nn.RNNQuantScratch
}

var (
	_ Recognizer       = (*RNNEngine)(nil)
	_ FrameLabeler     = (*RNNEngine)(nil)
	_ CacheTranscriber = (*RNNEngine)(nil)
)

// Name implements Recognizer.
func (e *RNNEngine) Name() string { return string(e.ID) }

func (e *RNNEngine) front() engineFront { return engineFront{e.ID, e.SampleRate, e.MFCC, e.Dec} }

// Features extracts the engine's input representation (MFCC + optional
// deltas).
func (e *RNNEngine) Features(clip *audio.Clip) ([][]float64, error) {
	feats, err := e.front().features(clip, nil)
	if err != nil || !e.UseDeltas {
		return feats, err
	}
	return dsp.AppendDeltas(feats, 2), nil
}

// FrameLabels implements FrameLabeler.
func (e *RNNEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	return e.frameLabels(clip, nil)
}

// frameLabels runs a fresh core over every frame, or with
// EnableQuantized in effect the int8 sequence forward over the whole
// input matrix.
func (e *RNNEngine) frameLabels(clip *audio.Clip, cache *FeatureCache) ([]int, error) {
	feats, err := e.front().features(clip, cache)
	if err != nil {
		return nil, err
	}
	if e.qnet != nil {
		if e.UseDeltas {
			feats = dsp.AppendDeltas(feats, 2)
		}
		return e.frameLabelsQuantized(feats)
	}
	c := e.newCore(len(feats))
	if err := c.advance(feats, true); err != nil {
		return nil, err
	}
	return c.labels(feats, 0, len(feats))
}

// Transcribe implements Recognizer.
func (e *RNNEngine) Transcribe(clip *audio.Clip) (string, error) {
	return transcribe(e, clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *RNNEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	return transcribe(e, clip, cache)
}

// rnnCore is the RNN's frameCore. With deltas, input t reads frames
// t-2..t+2, so it is committed once frame t+2 exists (without deltas, as
// soon as frame t does). The hidden state advances only over committed
// inputs; a provisional tail runs on a copy of it.
type rnnCore struct {
	e         *RNNEngine
	committed []int
	// h is the hidden state after the last committed input; nh and hp
	// are step scratch (the three are always distinct buffers).
	h, nh, hp []float64
	y         []float64 // output logits of the last step
	in        []float64 // network input buffer, reused frame to frame
}

func (e *RNNEngine) newCore(frames int) *rnnCore {
	n := e.Net.Hidden
	buf := make([]float64, 3*n+e.Net.Out)
	return &rnnCore{
		e:         e,
		committed: make([]int, 0, frames),
		h:         buf[:n:n],
		nh:        buf[n : 2*n : 2*n],
		hp:        buf[2*n : 3*n : 3*n],
		y:         buf[3*n:],
	}
}

// input builds network input t: the MFCC row followed, with deltas, by
// its width-2 regression deltas with edges clamped to the frames in
// feats. The result aliases a buffer the next call overwrites.
func (c *rnnCore) input(feats [][]float64, t int) []float64 {
	f := feats[t]
	if !c.e.UseDeltas {
		return f
	}
	if cap(c.in) < 2*len(f) {
		c.in = make([]float64, 2*len(f))
	}
	v := c.in[:2*len(f)]
	dsp.DeltaFrame(feats, t, 2, v[copy(v, f):])
	return v
}

// step runs input t from hidden state h into nh and returns its label.
func (c *rnnCore) step(feats [][]float64, t int, h, nh []float64) (int, error) {
	if err := c.e.Net.StepInto(c.input(feats, t), h, nh, c.y); err != nil {
		return 0, fmt.Errorf("asr: %s frame %d: %w", c.e.ID, t, err)
	}
	return nn.Argmax(c.y), nil
}

func (c *rnnCore) advance(feats [][]float64, final bool) error {
	for t := len(c.committed); t < len(feats) && (final || !c.e.UseDeltas || t+2 < len(feats)); t++ {
		l, err := c.step(feats, t, c.h, c.nh)
		if err != nil {
			return err
		}
		c.h, c.nh = c.nh, c.h
		c.committed = append(c.committed, l)
	}
	return nil
}

func (c *rnnCore) labels(feats [][]float64, from, to int) ([]int, error) {
	n := len(c.committed)
	if to <= n {
		return c.committed[from:to], nil
	}
	out := append(make([]int, 0, to-from), c.committed[min(from, n):]...)
	h, nh := append(c.hp[:0], c.h...), c.nh
	for t := n; t < to; t++ {
		l, err := c.step(feats, t, h, nh)
		if err != nil {
			return nil, err
		}
		h, nh = nh, h
		if t >= from {
			out = append(out, l)
		}
	}
	c.hp, c.nh = h, nh
	return out, nil
}
