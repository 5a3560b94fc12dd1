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

// Features extracts the engine's input representation (MFCC + optional
// deltas).
func (e *RNNEngine) Features(clip *audio.Clip) ([][]float64, error) {
	return e.features(clip, nil)
}

func (e *RNNEngine) features(clip *audio.Clip, cache *FeatureCache) ([][]float64, error) {
	if err := validateClip(clip, e.SampleRate); err != nil {
		return nil, err
	}
	var (
		feats [][]float64
		err   error
	)
	if cache != nil {
		feats, err = cache.Extract(e.MFCC)
	} else {
		feats, err = e.MFCC.Extract(clip.Samples)
	}
	if err != nil {
		return nil, fmt.Errorf("asr: %s feature extraction: %w", e.ID, err)
	}
	if !e.UseDeltas {
		return feats, nil
	}
	return dsp.AppendDeltas(feats, 2), nil
}

// FrameLabels implements FrameLabeler.
func (e *RNNEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	return e.frameLabels(clip, nil)
}

func (e *RNNEngine) frameLabels(clip *audio.Clip, cache *FeatureCache) ([]int, error) {
	feats, err := e.features(clip, cache)
	if err != nil {
		return nil, err
	}
	if e.qnet != nil {
		return e.frameLabelsQuantized(feats)
	}
	logits, _, err := e.Net.ForwardSeq(feats)
	if err != nil {
		return nil, fmt.Errorf("asr: %s forward: %w", e.ID, err)
	}
	labels := make([]int, len(logits))
	for t, l := range logits {
		labels[t] = nn.Argmax(l)
	}
	return labels, nil
}

// Transcribe implements Recognizer.
func (e *RNNEngine) Transcribe(clip *audio.Clip) (string, error) {
	return e.TranscribeWithCache(clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *RNNEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	labels, err := e.frameLabels(clip, cache)
	if err != nil {
		return "", err
	}
	mc := e.MFCC.Config()
	labels = ApplyEnergyGate(labels, clip.Samples, mc.FrameLen, mc.Hop, energyGateRatio)
	text, err := e.Dec.Decode(labels)
	if err != nil {
		return "", fmt.Errorf("asr: %s decoding: %w", e.ID, err)
	}
	return text, nil
}
