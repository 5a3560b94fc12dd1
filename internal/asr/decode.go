package asr

import (
	"fmt"
	"strings"

	"mvpears/internal/lm"
	"mvpears/internal/phoneme"
)

// Decoder turns per-frame phoneme labels into a word sequence using the
// pronunciation lexicon (phoneme edit distance) and an n-gram language
// model for rescoring — the paper's "phoneme assembling" and "language
// generation" stages.
type Decoder struct {
	LM           *lm.Model
	LMWeight     float64 // weight of the LM log-prob during rescoring
	TopK         int     // lexicon candidates per segment
	MinSegFrames int     // segments shorter than this are treated as noise
	MinSilFrames int     // silence runs shorter than this do not split words

	words   []string
	pronIDs [][]int
}

// NewDecoder builds a decoder over the global lexicon.
func NewDecoder(model *lm.Model, lmWeight float64, topK int) (*Decoder, error) {
	if model == nil {
		return nil, fmt.Errorf("asr: decoder needs a language model")
	}
	if topK <= 0 {
		topK = 5
	}
	d := &Decoder{LM: model, LMWeight: lmWeight, TopK: topK, MinSegFrames: 2, MinSilFrames: 3}
	d.words = phoneme.Words()
	d.pronIDs = make([][]int, len(d.words))
	for i, w := range d.words {
		p, _ := phoneme.Lookup(w)
		ids, err := phoneme.Indices(p)
		if err != nil {
			return nil, fmt.Errorf("asr: lexicon word %q: %w", w, err)
		}
		d.pronIDs[i] = ids
	}
	return d, nil
}

// SmoothLabels applies a 3-frame majority filter, suppressing single-frame
// label glitches that would otherwise fragment words.
func SmoothLabels(labels []int) []int {
	if len(labels) < 3 {
		out := make([]int, len(labels))
		copy(out, labels)
		return out
	}
	out := make([]int, len(labels))
	copy(out, labels)
	for i := 1; i < len(labels)-1; i++ {
		if labels[i-1] == labels[i+1] && labels[i] != labels[i-1] {
			out[i] = labels[i-1]
		}
	}
	return out
}

// segments splits smoothed frame labels on silence into per-word phoneme
// sequences (consecutive repeats collapsed). Only silence runs of at least
// MinSilFrames split words: stop closures produce 1–2 near-silent frames
// inside words, while the inter-word pauses synthesized by the speech
// substrate are much longer.
func (d *Decoder) segments(labels []int) [][]int {
	sil := phoneme.SilIndex()
	minSil := d.MinSilFrames
	if minSil <= 0 {
		minSil = 3
	}
	var segs [][]int
	var cur []int
	var curFrames int
	var silRun int
	flush := func() {
		if curFrames >= d.MinSegFrames && len(cur) > 0 {
			segs = append(segs, cur)
		}
		cur = nil
		curFrames = 0
	}
	for _, l := range labels {
		if l == sil {
			silRun++
			if silRun >= minSil {
				flush()
			}
			continue
		}
		silRun = 0
		curFrames++
		if len(cur) == 0 || cur[len(cur)-1] != l {
			cur = append(cur, l)
		}
	}
	flush()
	return segs
}

// ApplyEnergyGate forces frames whose RMS energy is below ratio times the
// whole-clip RMS to silence. This suppresses spurious labels on the
// zero-padded final frame and in long pauses.
func ApplyEnergyGate(labels []int, samples []float64, frameLen, hop int, ratio float64) []int {
	if frameLen <= 0 || hop <= 0 || len(samples) == 0 {
		return labels
	}
	return energyGate(labels, 0, samples, 0, len(samples), frameLen, hop, ratio)
}

// energyGate returns a copy of labels, labels[k] being frame first+k,
// with every frame whose RMS is below ratio times the RMS of the
// reference range samples[a:b] forced to silence. Frames index the whole
// sample buffer, not the reference range: engine frame geometries differ,
// so a window's frames are located by absolute sample position.
func energyGate(labels []int, first int, samples []float64, a, b, frameLen, hop int, ratio float64) []int {
	var total float64
	for _, v := range samples[a:b] {
		total += v * v
	}
	refRMS := total / float64(b-a)
	threshold := ratio * ratio * refRMS
	sil := phoneme.SilIndex()
	out := make([]int, len(labels))
	copy(out, labels)
	for k := range out {
		start := (first + k) * hop
		if start >= len(samples) {
			out[k] = sil
			continue
		}
		end := start + frameLen
		if end > len(samples) {
			end = len(samples)
		}
		var e float64
		for _, v := range samples[start:end] {
			e += v * v
		}
		if e/float64(end-start) < threshold {
			out[k] = sil
		}
	}
	return out
}

// candidate is a lexicon word scored against a phoneme segment.
type candidate struct {
	word string
	dist float64 // normalized phoneme edit distance
}

// decodeScratch holds the per-Decode working buffers (edit-distance DP
// rows and the top-K heap), so scoring the whole lexicon per segment does
// not allocate per word. One scratch belongs to one Decode call; the
// Decoder itself stays safe for concurrent use.
type decodeScratch struct {
	prev, cur []int
	top       []candidate
}

// topCandidates returns the TopK lexicon words closest to the phoneme
// sequence, ties broken alphabetically (the word list is sorted, and
// insertion keeps the earlier of equally distant words first — the same
// order the previous stable full sort produced).
func (d *Decoder) topCandidates(seg []int, s *decodeScratch) []candidate {
	k := d.TopK
	if k > len(d.words) {
		k = len(d.words)
	}
	if k <= 0 {
		return nil
	}
	if cap(s.top) < k {
		s.top = make([]candidate, 0, k)
	}
	top := s.top[:0]
	for i, w := range d.words {
		dist := phoneme.EditDistanceBuf(seg, d.pronIDs[i], s.prev, s.cur)
		denom := len(seg)
		if len(d.pronIDs[i]) > denom {
			denom = len(d.pronIDs[i])
		}
		nd := float64(dist) / float64(denom)
		if len(top) == k && nd >= top[k-1].dist {
			continue
		}
		// Insert in sorted position (strictly-less keeps ties in word
		// order).
		pos := len(top)
		for pos > 0 && nd < top[pos-1].dist {
			pos--
		}
		if len(top) < k {
			top = append(top, candidate{})
		}
		copy(top[pos+1:], top[pos:len(top)-1])
		top[pos] = candidate{word: w, dist: nd}
	}
	s.top = top
	return top
}

// DecodePhonemes converts an already-collapsed phoneme-id sequence (as
// produced by a CTC decoder) into a transcription: words are the
// silence-delimited runs.
func (d *Decoder) DecodePhonemes(ids []int) (string, error) {
	if len(ids) == 0 {
		return "", fmt.Errorf("asr: no phonemes to decode")
	}
	sil := phoneme.SilIndex()
	var segs [][]int
	var cur []int
	for _, id := range ids {
		if id == sil {
			if len(cur) > 0 {
				segs = append(segs, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, id)
	}
	if len(cur) > 0 {
		segs = append(segs, cur)
	}
	return d.wordsFromSegments(segs), nil
}

// Decode converts per-frame phoneme labels into a transcription.
func (d *Decoder) Decode(labels []int) (string, error) {
	if len(labels) == 0 {
		return "", fmt.Errorf("asr: no frame labels to decode")
	}
	segs := d.segments(SmoothLabels(labels))
	return d.wordsFromSegments(segs), nil
}

// wordsFromSegments maps each phoneme segment to its best lexicon word
// with LM rescoring and joins the words.
func (d *Decoder) wordsFromSegments(segs [][]int) string {
	maxPron := 0
	for _, p := range d.pronIDs {
		if len(p) > maxPron {
			maxPron = len(p)
		}
	}
	scratch := &decodeScratch{
		prev: make([]int, maxPron+1),
		cur:  make([]int, maxPron+1),
	}
	words := make([]string, 0, len(segs))
	history := make([]string, 0, len(segs))
	for _, seg := range segs {
		cands := d.topCandidates(seg, scratch)
		if len(cands) == 0 {
			continue
		}
		// Acoustic score: negative normalized distance; LM rescoring on
		// top of it.
		lmCands := make([]lm.Candidate, len(cands))
		for i, c := range cands {
			lmCands[i] = lm.Candidate{Word: c.word, Score: -4 * c.dist}
		}
		best := d.LM.Rescore(history, lmCands, d.LMWeight)[0].Word
		words = append(words, best)
		history = append(history, best)
	}
	return strings.Join(words, " ")
}
