package asr

import (
	"fmt"
	"math/rand"
	"testing"

	"mvpears/internal/audio"
	"mvpears/internal/speech"
)

func synthClip(t testing.TB, rate int, text string, seed int64) *audio.Clip {
	t.Helper()
	synth := speech.NewSynthesizer(rate)
	rng := rand.New(rand.NewSource(seed))
	clip, _, err := synth.SynthesizeSentence(text, speech.RandomSpeaker(rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func streamChunkSchedules(n int) map[string][]int {
	scheds := map[string][]int{
		"one-sample": nil,
		"whole-clip": {n},
	}
	mk := func(size int) []int {
		var out []int
		for rem := n; rem > 0; {
			c := size
			if c > rem {
				c = rem
			}
			out = append(out, c)
			rem -= c
		}
		return out
	}
	scheds["one-sample"] = mk(1)
	for _, p := range []int{31, 997} {
		if p < n {
			scheds[fmt.Sprintf("prime-%d", p)] = mk(p)
		}
	}
	return scheds
}

// TestEnsembleStreamFinalParity is the transcription half of the
// incremental/batch parity contract: for every engine architecture and
// every chunk schedule, the streamed final transcription must equal the
// batch Transcribe result character for character.
func TestEnsembleStreamFinalParity(t *testing.T) {
	set := testEngines(t)
	clip := synthClip(t, set.SampleRate, "open the door and read the book", 2024)
	engines := []Recognizer{set.DS0, set.DS1, set.GCS, set.AT, set.KLD}
	want := make([]string, len(engines))
	for i, e := range engines {
		text, err := e.Transcribe(clip)
		if err != nil {
			t.Fatalf("%s: batch transcribe: %v", e.Name(), err)
		}
		want[i] = text
	}
	for schedName, sched := range streamChunkSchedules(len(clip.Samples)) {
		es, err := NewEnsembleStream(engines, set.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for _, c := range sched {
			if err := es.Push(clip.Samples[off : off+c]); err != nil {
				t.Fatalf("%s: Push: %v", schedName, err)
			}
			off += c
		}
		if err := es.Finalize(); err != nil {
			t.Fatalf("%s: Finalize: %v", schedName, err)
		}
		for i, e := range engines {
			got, err := es.FinalText(i)
			if err != nil {
				t.Fatalf("%s/%s: FinalText: %v", schedName, e.Name(), err)
			}
			if got != want[i] {
				t.Errorf("%s/%s: streamed %q != batch %q", schedName, e.Name(), got, want[i])
			}
		}
	}
}

// TestEnsembleStreamWindows exercises the provisional sliding-window
// transcriptions: every hop position must decode without error
// mid-stream, and on a benign utterance at least one window must carry
// text.
func TestEnsembleStreamWindows(t *testing.T) {
	set := testEngines(t)
	clip := synthClip(t, set.SampleRate, "close the window", 77)
	engines := []Recognizer{set.DS0, set.DS1, set.GCS, set.AT}
	es, err := NewEnsembleStream(engines, set.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	window := set.SampleRate // 1 s
	hop := set.SampleRate / 4
	chunk := 512
	var nonEmpty int
	for off := 0; off < len(clip.Samples); {
		c := chunk
		if off+c > len(clip.Samples) {
			c = len(clip.Samples) - off
		}
		if err := es.Push(clip.Samples[off : off+c]); err != nil {
			t.Fatal(err)
		}
		off += c
	}
	// Sweep every hop position once the clip is fully pushed but not
	// finalized: this is the mid-stream view the session layer sees.
	for pos := window; pos <= es.Total(); pos += hop {
		for i := range engines {
			text, err := es.WindowText(i, pos-window, pos)
			if err != nil {
				t.Fatalf("window [%d,%d) engine %s: %v", pos-window, pos, engines[i].Name(), err)
			}
			if text != "" {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no window produced any text on a benign utterance")
	}
	if err := es.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := es.WindowText(0, 0, window); err == nil {
		t.Fatal("WindowText after Finalize should error")
	}
}

// TestEnsembleStreamValidation pins the error paths.
func TestEnsembleStreamValidation(t *testing.T) {
	set := testEngines(t)
	if _, err := NewEnsembleStream(nil, set.SampleRate); err == nil {
		t.Fatal("empty engine list should error")
	}
	if _, err := NewEnsembleStream([]Recognizer{set.DS0}, set.SampleRate+1); err == nil {
		t.Fatal("sample-rate mismatch should error")
	}
	es, err := NewEnsembleStream([]Recognizer{set.DS0}, set.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.Finalize(); err == nil {
		t.Fatal("finalizing an empty stream should error")
	}
	clip := audio.NewClip(set.SampleRate, 100)
	if err := es.Push(clip.Samples); err != nil {
		t.Fatal(err)
	}
	if _, err := es.FinalText(0); err == nil {
		t.Fatal("FinalText before Finalize should error")
	}
	if _, err := es.WindowText(0, 50, 200); err == nil {
		t.Fatal("out-of-range window should error")
	}
	if err := es.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := es.Push(clip.Samples); err == nil {
		t.Fatal("Push after Finalize should error")
	}
}

// streamWindowTexts pushes clip in pieces of chunk(k) samples for the
// k-th push and, like the session layer, reads every engine's WindowText
// for each 250 ms hop edge as soon as the pushed audio reaches it (1 s
// windows, the first ending at 1 s). Row j of the texts holds the window
// ending at 1 s + j hops. The stream is returned unfinalized.
func streamWindowTexts(t *testing.T, engines []Recognizer, clip *audio.Clip, chunk func(k int) int) (*EnsembleStream, [][]string) {
	t.Helper()
	es, err := NewEnsembleStream(engines, clip.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	window, hop := clip.SampleRate, clip.SampleRate/4
	var rows [][]string
	next := window
	for off, k := 0, 0; off < len(clip.Samples); k++ {
		end := min(off+chunk(k), len(clip.Samples))
		if err := es.Push(clip.Samples[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
		for ; next <= es.Total(); next += hop {
			row := make([]string, len(engines))
			for i, e := range engines {
				if row[i], err = es.WindowText(i, next-window, next); err != nil {
					t.Fatalf("window [%d,%d) %s: %v", next-window, next, e.Name(), err)
				}
			}
			rows = append(rows, row)
		}
	}
	return es, rows
}

// windowTextTable pins the provisional window transcriptions of
// TestEnsembleStreamWindowTexts, per chunk size, in DS0, DS1, GCS, AT,
// KLD order. Any change to an engine's commitment rule, provisional tail
// or window gate shows up here as a changed text.
var windowTextTable = map[int][][]string{
	512: {
		{"open the", "go done the", "open the", "open the big", "open the"},
		{"open the door", "go done the door", "open the door", "open the door", "open the door"},
		{"an the door and", "an the door and", "an the door and", "an the door and", "an oven door air"},
		{"the door and", "the door an", "the door and", "the door and", "the door and"},
		{"door and early", "door an free", "door and free", "door and free", "door and free"},
		{"air and read", "air an read", "air and read", "air and read", "air and read"},
		{"and read the", "an read the", "and read the", "and read the", "and read oven"},
		{"read the bad", "read the low", "read the both", "read the book", "read oven back"},
	},
	4000: {
		{"open the", "go done the", "open the", "open the", "open the"},
		{"open the door", "go done the door", "open the door", "open the door", "open the door"},
		{"an the door and", "an the door and", "an the door and", "an the door and", "an oven door air"},
		{"the door and", "the door an", "the door and", "the door and", "the door and"},
		{"door and early", "door an free", "door and free", "door and free", "door and free"},
		{"air and read", "air an read", "air and read", "air and read", "air and read"},
		{"and read the", "an read the", "and read the", "and read the", "and read oven"},
		{"read the book", "read the book", "read the both", "read the book", "read oven back"},
	},
}

// TestEnsembleStreamWindowTexts pins every engine's provisional window
// transcription at every hop edge of a fixed clip, for a fine and a
// coarse chunk schedule.
func TestEnsembleStreamWindowTexts(t *testing.T) {
	set := testEngines(t)
	clip := synthClip(t, set.SampleRate, "open the door and read the book", 2024)
	engines := []Recognizer{set.DS0, set.DS1, set.GCS, set.AT, set.KLD}
	for _, chunk := range []int{512, 4000} {
		_, got := streamWindowTexts(t, engines, clip, func(int) int { return chunk })
		want := windowTextTable[chunk]
		if len(got) != len(want) {
			t.Errorf("chunk %d: %d windows, want %d", chunk, len(got), len(want))
		}
		for k := range min(len(got), len(want)) {
			for i, e := range engines {
				if got[k][i] != want[k][i] {
					t.Errorf("chunk %d window %d %s: %q, want %q", chunk, k, e.Name(), got[k][i], want[k][i])
				}
			}
		}
		if t.Failed() {
			t.Logf("chunk %d texts: %#v", chunk, got)
		}
	}
}

// FuzzEnsembleStreamSchedule turns the fuzz bytes into a chunk-size
// schedule (byte b pushes 1+16b samples, the bytes cycling until the clip
// is in) and checks the streaming contract under it: WindowText never
// errors mid-stream, and every engine's FinalText equals its batch
// Transcribe character for character.
func FuzzEnsembleStreamSchedule(f *testing.F) {
	set := testEngines(f)
	clip := synthClip(f, set.SampleRate, "open the door and close the window", 77)
	engines := []Recognizer{set.DS0, set.DS1, set.GCS, set.AT, set.KLD}
	want := make([]string, len(engines))
	for i, e := range engines {
		text, err := e.Transcribe(clip)
		if err != nil {
			f.Fatalf("%s: batch transcribe: %v", e.Name(), err)
		}
		want[i] = text
	}
	f.Add([]byte{0})
	f.Add([]byte{31, 255, 2})
	f.Add([]byte{250})
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) == 0 {
			return
		}
		es, _ := streamWindowTexts(t, engines, clip, func(k int) int { return 1 + 16*int(sched[k%len(sched)]) })
		if err := es.Finalize(); err != nil {
			t.Fatal(err)
		}
		for i, e := range engines {
			got, err := es.FinalText(i)
			if err != nil {
				t.Fatalf("%s: FinalText: %v", e.Name(), err)
			}
			if got != want[i] {
				t.Errorf("%s: streamed %q != batch %q", e.Name(), got, want[i])
			}
		}
	})
}
