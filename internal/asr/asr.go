// Package asr implements the Automatic Speech Recognition substrate: a
// common Recognizer interface and four architecturally diverse engines
// standing in for the paper's ASR systems:
//
//   - DS0, DS1: feedforward (MLP) frame classifiers over context-stacked
//     MFCCs — the DeepSpeech v0.1.0 / v0.1.1 pair (same architecture,
//     different width, seed and training subset). DS0 is the white-box
//     attack target and exposes exact input gradients.
//   - GCS: an Elman-RNN acoustic model with a different feature front end
//     — the Google-Cloud-Speech stand-in (recurrent architecture family).
//   - AT: a GMM-HMM acoustic model with Viterbi decoding — the
//     Amazon-Transcribe stand-in (non-neural, maximal diversity).
//   - KLD: a deliberately under-trained engine reproducing the paper's
//     observation that an inaccurate auxiliary (Kaldi) hurts detection.
//
// All engines share the lexicon + n-gram-LM word decoder in decode.go.
//
// DS0/DS1, GCS, AT and KLD each label frames through exactly one
// frame-incremental core (frameCore). Batch transcription runs a fresh
// core over every frame of the clip; EnsembleStream (stream.go) advances
// one as audio arrives. The int8 kernels (quantized.go) are a batch-only
// alternative that frameLabels picks when EnableQuantized is in effect.
package asr

import (
	"fmt"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
)

// EngineID identifies one of the built-in engines.
type EngineID string

// Built-in engine identifiers, named after the systems they stand in for.
const (
	DS0 EngineID = "DS0" // DeepSpeech v0.1.0 (target model)
	DS1 EngineID = "DS1" // DeepSpeech v0.1.1
	GCS EngineID = "GCS" // Google Cloud Speech
	AT  EngineID = "AT"  // Amazon Transcribe
	KLD EngineID = "KLD" // weak Kaldi-like auxiliary
)

// Recognizer converts audio to text.
type Recognizer interface {
	// Name returns the engine identifier.
	Name() string
	// Transcribe converts the clip to a normalized transcription.
	Transcribe(clip *audio.Clip) (string, error)
}

// FrameLabeler is implemented by engines that expose their per-frame
// phoneme decisions (used by attacks and diagnostics).
type FrameLabeler interface {
	// FrameLabels returns the engine's raw per-frame phoneme ids for the
	// clip, before word decoding.
	FrameLabels(clip *audio.Clip) ([]int, error)
}

// GradientModel is implemented by engines that can compute the gradient of
// a framewise target loss with respect to the input waveform — the
// capability a white-box attacker needs.
type GradientModel interface {
	FrameLabeler
	// TargetLoss returns the cross-entropy loss of the clip's frames
	// against the target frame labels and dLoss/dsample.
	TargetLoss(clip *audio.Clip, targetLabels []int) (float64, []float64, error)
	// NumFrames reports how many frames the engine extracts from n
	// samples, so attackers can build target alignments.
	NumFrames(numSamples int) int
}

// energyGateRatio is the frame-RMS-to-clip-RMS ratio below which a frame
// is forced to silence during transcription.
const energyGateRatio = 0.08

// validateClip performs the shared input checks.
func validateClip(clip *audio.Clip, wantRate int) error {
	if clip == nil || len(clip.Samples) == 0 {
		return fmt.Errorf("asr: empty clip")
	}
	if clip.SampleRate != wantRate {
		return fmt.Errorf("asr: clip is %d Hz, engine expects %d Hz", clip.SampleRate, wantRate)
	}
	return nil
}

// engineFront is what every engine's preamble and tail need: the feature
// front end that turns a clip into MFCC frames, and the decoder that
// turns frame labels into words.
type engineFront struct {
	id   EngineID
	rate int
	mfcc *dsp.MFCC
	dec  *Decoder
}

// features validates clip and returns its MFCC frames, through the shared
// per-clip cache when one is given.
func (f engineFront) features(clip *audio.Clip, cache *FeatureCache) ([][]float64, error) {
	if err := validateClip(clip, f.rate); err != nil {
		return nil, err
	}
	var (
		feats [][]float64
		err   error
	)
	if cache != nil {
		feats, err = cache.Extract(f.mfcc)
	} else {
		feats, err = f.mfcc.Extract(clip.Samples)
	}
	if err != nil {
		return nil, fmt.Errorf("asr: %s feature extraction: %w", f.id, err)
	}
	return feats, nil
}

// decode gates labels, labels[k] being frame first+k, against the energy
// of samples[a:b] and decodes them into words. A whole clip is first=0,
// a=0, b=len(samples); a stream window is its own frame and sample range.
func (f engineFront) decode(labels []int, first int, samples []float64, a, b int) (string, error) {
	mc := f.mfcc.Config()
	text, err := f.dec.Decode(energyGate(labels, first, samples, a, b, mc.FrameLen, mc.Hop, energyGateRatio))
	if err != nil {
		return "", fmt.Errorf("asr: %s decoding: %w", f.id, err)
	}
	return text, nil
}

// frameCore is an engine's frame-incremental labeling core. It owns the
// engine's commitment rule (when a frame's label can no longer change),
// the committed labels and the reused scratch. Batch labeling is a fresh
// core advanced over every frame with final=true; EnsembleStream advances
// one per pushed chunk and reads provisional windows from it.
type frameCore interface {
	// advance labels the frames of feats not yet committed, as far as the
	// commitment rule allows; final=true commits every frame with
	// end-of-clip clamping. feats only grows from one call to the next.
	advance(feats [][]float64, final bool) error
	// labels returns the labels of frames [from,to): committed ones as
	// they are, the rest provisionally from feats as heard so far. The
	// result may alias the core's state and must not be modified.
	labels(feats [][]float64, from, to int) ([]int, error)
}

// labelEngine is an engine whose transcription is its frame labels,
// energy-gated and decoded.
type labelEngine interface {
	front() engineFront
	frameLabels(clip *audio.Clip, cache *FeatureCache) ([]int, error)
}

// transcribe is the TranscribeWithCache of every labelEngine.
func transcribe(e labelEngine, clip *audio.Clip, cache *FeatureCache) (string, error) {
	labels, err := e.frameLabels(clip, cache)
	if err != nil {
		return "", err
	}
	return e.front().decode(labels, 0, clip.Samples, 0, len(clip.Samples))
}
