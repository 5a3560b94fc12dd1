package asr

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"

	"mvpears/internal/speech"
)

func TestEngineSetSaveLoadRoundTrip(t *testing.T) {
	set := testEngines(t)
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty serialization")
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SampleRate != set.SampleRate {
		t.Fatalf("sample rate %d, want %d", loaded.SampleRate, set.SampleRate)
	}
	// Every engine must transcribe identically before and after the
	// round trip.
	synth := speech.NewSynthesizer(set.SampleRate)
	utts, err := speech.GenerateUtterances(synth, 6, 616)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		orig, back Recognizer
	}{
		{set.DS0, loaded.DS0},
		{set.DS1, loaded.DS1},
		{set.GCS, loaded.GCS},
		{set.AT, loaded.AT},
		{set.KLD, loaded.KLD},
	}
	for _, u := range utts {
		for _, p := range pairs {
			want, err := p.orig.Transcribe(u.Clip)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.back.Transcribe(u.Clip)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: loaded engine transcribes %q, original %q (input %q)",
					p.orig.Name(), got, want, u.Text)
			}
		}
	}
}

func TestEngineSetSaveLoadFile(t *testing.T) {
	set := testEngines(t)
	path := filepath.Join(t.TempDir(), "models", "engines.gob")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DS0 == nil || loaded.AT == nil {
		t.Fatal("incomplete load")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("definitely not gob"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSaveRejectsPartialSet(t *testing.T) {
	partial := &EngineSet{SampleRate: 8000}
	var buf bytes.Buffer
	if err := partial.Save(&buf); err == nil {
		t.Fatal("expected error for partial engine set")
	}
}

// TestLoadedDS0KeepsGradientCapability verifies the white-box attack
// surface survives persistence.
func TestLoadedDS0KeepsGradientCapability(t *testing.T) {
	set := testEngines(t)
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	synth := speech.NewSynthesizer(set.SampleRate)
	utts, err := speech.GenerateUtterances(synth, 1, 717)
	if err != nil {
		t.Fatal(err)
	}
	clip := utts[0].Clip
	nf := loaded.DS0.NumFrames(len(clip.Samples))
	targets := make([]int, nf)
	loss, grad, err := loaded.DS0.TargetLoss(clip, targets)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || len(grad) != len(clip.Samples) {
		t.Fatalf("loaded engine gradient broken: loss %g, %d grads", loss, len(grad))
	}
}

// TestSaveIsByteDeterministic checks an engine set serializes to the same
// bytes every time and after a round trip: the model fingerprint is a
// hash of these bytes.
func TestSaveIsByteDeterministic(t *testing.T) {
	set := testEngines(t)
	var a, b, c bytes.Buffer
	if err := set.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := set.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of one engine set differ")
	}
	loaded, err := Load(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("save after a load differs from the loaded bytes")
	}
}

// TestLoadLegacyMapCounts checks an artifact of the first format revision,
// which stored the language-model count tables as gob maps, still loads
// into the same model: saving it again gives the current format's bytes.
func TestLoadLegacyMapCounts(t *testing.T) {
	set := testEngines(t)
	snap, err := set.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := gob.NewEncoder(&want).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	toMap := func(list []lmCount) map[string]float64 {
		m := make(map[string]float64, len(list))
		for _, c := range list {
			m[c.Key] = c.N
		}
		return m
	}
	snap.LM.Counts, snap.LM.Ctx = toMap(snap.LM.CountList), toMap(snap.LM.CtxList)
	snap.LM.CountList, snap.LM.CtxList = nil, nil
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := loaded.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("legacy artifact reloads into a different model")
	}
}
