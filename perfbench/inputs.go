package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/phoneme"
	"mvpears/internal/speech"
)

// Ground-truth kinds of an input.
const (
	kindBenign   = "benign"
	kindWhiteBox = "whitebox"
	kindBlackBox = "blackbox"
	kindFiller   = "filler" // short benign clip that only pre-fills the verdict cache
)

// item is one distinct recording. The daemon only ever receives its
// PCM16 bytes, wrapped in a WAV container or cut into stream frames.
type item struct {
	id   int
	kind string
	rate int
	pcm  []byte
	// oracle is the float full-ensemble verdict on exactly these PCM
	// samples (nil until runOracle).
	oracle *mvpears.Detection
}

func (it *item) ae() bool { return it.kind == kindWhiteBox || it.kind == kindBlackBox }

// clip decodes the PCM exactly as the daemon does.
func (it *item) clip() *mvpears.Clip {
	return audio.PCM16{SampleRate: it.rate, Data: it.pcm}.Decode()
}

// encodePCM quantizes float samples to little-endian PCM16 the way
// audio.WriteWAV does.
func encodePCM(samples []float64) []byte {
	out := make([]byte, 2*len(samples))
	for i, v := range samples {
		v = math.Max(-1, math.Min(1, v))
		binary.LittleEndian.PutUint16(out[2*i:], uint16(int16(math.Round(v*32767))))
	}
	return out
}

// Container variants: the same PCM payload in differently laid out WAV
// files, all of which decode to the same samples and cache key.
const (
	wavCanonical = iota // 44-byte header
	wavFmt18            // 18-byte fmt chunk (cbSize = 0)
	wavListFirst        // LIST/INFO chunk before the data chunk
	wavTrailer          // LIST chunk after the data chunk
	numContainers
)

// wavParts returns the container variant's bytes before and after the
// PCM payload.
func wavParts(rate, dataLen, variant int) (head, tail []byte) {
	le32 := func(b []byte, v int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }
	le16 := func(b []byte, v int) []byte { return binary.LittleEndian.AppendUint16(b, uint16(v)) }
	fmtBody := func(b []byte, size int) []byte {
		b = append(b, "fmt "...)
		b = le32(b, size)
		b = le16(b, 1) // PCM
		b = le16(b, 1) // mono
		b = le32(b, rate)
		b = le32(b, rate*2)
		b = le16(b, 2)
		b = le16(b, 16)
		if size == 18 {
			b = le16(b, 0)
		}
		return b
	}
	list := append([]byte("LIST"), 0, 0, 0, 0)
	list = append(list, "INFOISFT"...)
	list = le32(list, 8)
	list = append(list, "mvpears\x00"...)
	binary.LittleEndian.PutUint32(list[4:], uint32(len(list)-8))

	var chunks []byte
	switch variant {
	case wavFmt18:
		chunks = fmtBody(chunks, 18)
	case wavListFirst:
		chunks = append(fmtBody(chunks, 16), list...)
	default:
		chunks = fmtBody(chunks, 16)
	}
	if variant == wavTrailer {
		tail = list
	}
	head = append([]byte("RIFF"), 0, 0, 0, 0)
	head = append(head, "WAVE"...)
	head = append(head, chunks...)
	head = append(head, "data"...)
	head = le32(head, dataLen)
	binary.LittleEndian.PutUint32(head[4:], uint32(len(head)-8+dataLen+len(tail)))
	return head, tail
}

// upload returns the request body parts of it in container variant v.
func (it *item) upload(v int) [][]byte {
	head, tail := wavParts(it.rate, len(it.pcm), v)
	if len(tail) == 0 {
		return [][]byte{head, it.pcm}
	}
	return [][]byte{head, it.pcm, tail}
}

// aeBase is one crafted adversarial example that fools DS0: the seed of
// the variants a workload uploads.
type aeBase struct {
	Kind    string
	Command string
	Rate    int
	PCM     []byte
}

// The crafted AE pool: aePerKind white-box and as many black-box AEs,
// crafted once per model artifact with a fixed seed and cached on disk
// (crafting costs seconds per AE). Workload seeds choose among them, so
// every seed draws from the same spread of attacks.
const (
	aePerKind  = 8
	aePoolSeed = 1
)

// foolsDS0 reports whether the target engine transcribes pcm as cmd —
// the paper's dataset protocol keeps only such AEs.
func foolsDS0(sys *mvpears.System, rate int, pcm []byte, cmd string) (bool, error) {
	text, err := sys.Transcribe(audio.PCM16{SampleRate: rate, Data: pcm}.Decode())
	if err != nil {
		return false, err
	}
	return speech.NormalizeText(text) == speech.NormalizeText(cmd), nil
}

// craftAEs crafts (or loads from cacheDir) the AE pool of an artifact:
// white-box and black-box AEs against DS0, each verified to still fool
// DS0 after PCM16 quantization. AEs that do not fool DS0 are dropped;
// none is dropped for what the detector says about it.
func craftAEs(sys *mvpears.System, fingerprint, cacheDir string) ([]aeBase, error) {
	path := filepath.Join(cacheDir, fmt.Sprintf("ae-%s-%d.gob", fingerprint[:16], aePoolSeed))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		var pool []aeBase
		if err := gob.NewDecoder(f).Decode(&pool); err == nil && len(pool) == 2*aePerKind {
			return pool, nil
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench: crafting the AE pool (first run for this model artifact)")
	rate := sys.SampleRate()
	hosts, err := speech.GenerateUtterances(speech.NewSynthesizer(rate), 80, aePoolSeed*7919+17)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(aePoolSeed))
	var pool []aeBase
	wb, bb := 0, 0
	for _, h := range hosts {
		if wb == aePerKind && bb == aePerKind {
			break
		}
		if len(h.Clip.Samples) < rate { // hosts must carry the command: at least 1 s
			continue
		}
		var res *mvpears.AEResult
		base := aeBase{Rate: rate}
		if wb <= bb && wb < aePerKind || bb == aePerKind {
			base.Kind, base.Command = kindWhiteBox, speech.MaliciousCommands[rng.Intn(len(speech.MaliciousCommands))]
			res, err = sys.CraftWhiteBoxAE(h.Clip, base.Command)
		} else {
			base.Kind, base.Command = kindBlackBox, speech.ShortCommands[rng.Intn(len(speech.ShortCommands))]
			res, err = sys.CraftBlackBoxAE(h.Clip, base.Command, rng.Int63())
		}
		if err != nil {
			return nil, err
		}
		if !res.Success {
			continue
		}
		base.PCM = encodePCM(res.AE.Samples)
		ok, err := foolsDS0(sys, rate, base.PCM, base.Command)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		pool = append(pool, base)
		if base.Kind == kindWhiteBox {
			wb++
		} else {
			bb++
		}
	}
	if wb < aePerKind || bb < aePerKind {
		return nil, fmt.Errorf("crafting the AE pool: only %d white-box and %d black-box AEs fool DS0", wb, bb)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(f).Encode(pool); err != nil {
		f.Close()
		return nil, err
	}
	return pool, f.Close()
}

// source deterministically produces distinct recordings for one
// workload seed: synthesized benign utterances, short filler clips, and
// variants of the crafted AEs. The same seed yields the same sequence.
type source struct {
	sys    *mvpears.System
	synth  *speech.Synthesizer
	rate   int
	seed   int64
	rng    *rand.Rand
	aes    []aeBase
	batch  int
	utts   []speech.Utterance
	words  []string
	seen   map[[32]byte]bool
	nextID int
}

func newSource(sys *mvpears.System, seed int64, aes []aeBase) *source {
	rate := sys.SampleRate()
	return &source{
		sys: sys, synth: speech.NewSynthesizer(rate), rate: rate, seed: seed,
		rng: rand.New(rand.NewSource(seed)), aes: aes,
		words: phoneme.Words(), seen: map[[32]byte]bool{},
	}
}

// add registers a recording unless identical PCM was produced before.
func (s *source) add(kind string, pcm []byte) *item {
	h := sha256.Sum256(pcm)
	if s.seen[h] {
		return nil
	}
	s.seen[h] = true
	s.nextID++
	return &item{id: s.nextID, kind: kind, rate: s.rate, pcm: pcm}
}

// benign returns the next never-seen synthesized utterance.
func (s *source) benign() (*item, error) {
	for {
		if len(s.utts) == 0 {
			s.batch++
			utts, err := speech.GenerateUtterances(s.synth, 64, s.seed*100003+int64(s.batch))
			if err != nil {
				return nil, err
			}
			s.utts = utts
		}
		u := s.utts[0]
		s.utts = s.utts[1:]
		if it := s.add(kindBenign, encodePCM(u.Clip.Samples)); it != nil {
			return it, nil
		}
	}
}

// filler returns a never-seen one-word clip.
func (s *source) filler() (*item, error) {
	for {
		word := s.words[s.rng.Intn(len(s.words))]
		clip, _, err := s.synth.SynthesizeSentence(word, speech.RandomSpeaker(s.rng), s.rng)
		if err != nil {
			return nil, err
		}
		if it := s.add(kindFiller, encodePCM(clip.Samples)); it != nil {
			return it, nil
		}
	}
}

// adversarial returns a never-seen variant of a crafted AE: the base
// scaled by a gain in [0.9, 1] plus ±1 LSB dither, kept only when it
// still fools DS0.
func (s *source) adversarial() (*item, error) {
	for tries := 0; tries < 64; tries++ {
		base := s.aes[s.rng.Intn(len(s.aes))]
		gain := 0.9 + 0.1*s.rng.Float64()
		pcm := make([]byte, len(base.PCM))
		for i := 0; i+1 < len(pcm); i += 2 {
			v := float64(int16(binary.LittleEndian.Uint16(base.PCM[i:])))*gain + float64(s.rng.Intn(3)-1)
			v = math.Max(-32768, math.Min(32767, math.Round(v)))
			binary.LittleEndian.PutUint16(pcm[i:], uint16(int16(v)))
		}
		ok, err := foolsDS0(s.sys, s.rate, pcm, base.Command)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if it := s.add(base.Kind, pcm); it != nil {
			return it, nil
		}
	}
	return nil, errors.New("no AE variant still fools DS0 after 64 tries")
}

// mixed returns an AE with probability aeShare, else a benign utterance.
func (s *source) mixed(aeShare float64) (*item, error) {
	if s.rng.Float64() < aeShare {
		return s.adversarial()
	}
	return s.benign()
}

// take returns n recordings of which exactly round(n·aeShare), at
// random positions, are AEs: a fixed share keeps the work per run from
// swinging with the draw.
func (s *source) take(n int, aeShare float64) ([]*item, error) {
	out := make([]*item, n)
	for i, ae := range pick(s.rng, n, aeShare) {
		var err error
		if ae {
			out[i], err = s.adversarial()
		} else {
			out[i], err = s.benign()
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pick marks exactly round(n·share) of n positions, chosen at random.
func pick(rng *rand.Rand, n int, share float64) []bool {
	out := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(math.Round(float64(n)*share))] {
		out[i] = true
	}
	return out
}
