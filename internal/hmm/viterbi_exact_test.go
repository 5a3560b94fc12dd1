package hmm

import (
	"math"
	"math/rand"
	"testing"
)

// The lattice kernel (transposed transition scan, back-pointer slab,
// cached mixture log-weights) must reproduce the textbook recurrence bit
// for bit: the same additions in the same order, the same strict-">"
// tie-break. These tests compare it with a direct [][]float64 reference.

// tableEmitter scores observation x as t[int(x[0])]: a lookup table, so
// tests can force exact ties between states.
type tableEmitter []float64

func (t tableEmitter) LogProb(x []float64) float64 { return t[int(x[0])] }

// refViterbi is the textbook Viterbi over h.LogTrans: a full delta matrix
// and a back-pointer matrix, the first strict maximum winning each max.
func refViterbi(h *HMM, obs [][]float64) ([]int, float64, bool) {
	n, T := h.NumStates, len(obs)
	delta := make([][]float64, T)
	back := make([][]int, T)
	delta[0] = make([]float64, n)
	for i := 0; i < n; i++ {
		delta[0][i] = h.LogInit[i] + h.Emitters[i].LogProb(obs[0])
	}
	for t := 1; t < T; t++ {
		delta[t], back[t] = make([]float64, n), make([]int, n)
		for j := 0; j < n; j++ {
			best, arg := math.Inf(-1), 0
			for i := 0; i < n; i++ {
				if s := delta[t-1][i] + h.LogTrans[i][j]; s > best {
					best, arg = s, i
				}
			}
			delta[t][j] = best + h.Emitters[j].LogProb(obs[t])
			back[t][j] = arg
		}
	}
	best, arg := math.Inf(-1), 0
	for i, d := range delta[T-1] {
		if d > best {
			best, arg = d, i
		}
	}
	if math.IsInf(best, -1) {
		return nil, best, false
	}
	path := make([]int, T)
	path[T-1] = arg
	for t := T - 1; t > 0; t-- {
		path[t-1] = back[t][path[t]]
	}
	return path, best, true
}

// tieValues is the palette tied lattices draw from: few distinct values,
// including impossible transitions.
var tieValues = []float64{math.Inf(-1), 0, -1, -2, math.Log(0.5), math.Log(0.25)}

// tiedHMM builds an n-state HMM and a T-frame observation sequence whose
// every parameter comes from pick (an index into tieValues).
func tiedHMM(n, T, symbols int, pick func() int) (*HMM, [][]float64) {
	logInit := make([]float64, n)
	logTrans := make([][]float64, n)
	emitters := make([]Emitter, n)
	for i := 0; i < n; i++ {
		logInit[i] = tieValues[pick()]
		logTrans[i] = make([]float64, n)
		for j := range logTrans[i] {
			logTrans[i][j] = tieValues[pick()]
		}
		e := make(tableEmitter, symbols)
		for k := range e {
			e[k] = tieValues[pick()]
		}
		emitters[i] = e
	}
	h, err := NewHMM(logInit, logTrans, emitters)
	if err != nil {
		panic(err)
	}
	obs := make([][]float64, T)
	for t := range obs {
		obs[t] = []float64{float64(pick() % symbols)}
	}
	return h, obs
}

// checkViterbi compares the streamed lattice with the reference after
// every observation (the provisional path a stream window reads) and the
// batch Viterbi at the end: same error, same path, same score bits.
func checkViterbi(tb testing.TB, h *HMM, obs [][]float64) {
	tb.Helper()
	v := h.Stream(0)
	for t := range obs {
		v.Step(obs[t])
		want, wantScore, ok := refViterbi(h, obs[:t+1])
		got, gotScore, err := v.Path()
		if (err == nil) != ok {
			tb.Fatalf("prefix %d: lattice error %v, reference ok=%v", t+1, err, ok)
		}
		if !ok {
			continue
		}
		if math.Float64bits(gotScore) != math.Float64bits(wantScore) {
			tb.Fatalf("prefix %d: score %v, reference %v", t+1, gotScore, wantScore)
		}
		for i := range want {
			if got[i] != want[i] {
				tb.Fatalf("prefix %d: path %v, reference %v", t+1, got, want)
			}
		}
	}
	got, gotScore, err := h.Viterbi(obs)
	want, wantScore, ok := refViterbi(h, obs)
	if (err == nil) != ok || (ok && math.Float64bits(gotScore) != math.Float64bits(wantScore)) {
		tb.Fatalf("batch Viterbi: score %v err %v, reference %v ok=%v", gotScore, err, wantScore, ok)
	}
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("batch Viterbi path %v, reference %v", got, want)
		}
	}
}

// TestViterbiMatchesReferenceWithTies runs random lattices built from a
// six-value palette, so equal candidate scores are the rule rather than
// the exception and the tie-break decides most back-pointers.
func TestViterbiMatchesReferenceWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		n, T := 1+rng.Intn(7), 1+rng.Intn(15)
		h, obs := tiedHMM(n, T, 3, func() int { return rng.Intn(len(tieValues)) })
		checkViterbi(t, h, obs)
	}
	// All-equal parameters: every max is a full tie, so the path is the
	// lowest state throughout.
	h, obs := tiedHMM(4, 6, 1, func() int { return 1 })
	checkViterbi(t, h, obs)
	path, _, err := h.Viterbi(obs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range path {
		if s != 0 {
			t.Fatalf("frame %d: full tie resolved to state %d, want 0", i, s)
		}
	}
}

// TestGMMLogProbMatchesPerCallLog checks the cached log-weights give the
// bits the per-call math.Log form gives, for built, fitted and
// zero-weight mixtures.
func TestGMMLogProbMatchesPerCallLog(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ref := func(m *GMM, x []float64) float64 {
		out := math.Inf(-1)
		for i, c := range m.Components {
			if m.Weights[i] <= 0 {
				continue
			}
			out = logSumExp(out, math.Log(m.Weights[i])+c.LogProb(x))
		}
		return out
	}
	var mixes []*GMM
	for k := 1; k <= 4; k++ {
		comps := make([]*Gaussian, k)
		weights := make([]float64, k)
		for c := range comps {
			mean, variance := make([]float64, 3), make([]float64, 3)
			for j := range mean {
				mean[j], variance[j] = rng.NormFloat64(), 0.5+rng.Float64()
			}
			g, err := NewGaussian(mean, variance)
			if err != nil {
				t.Fatal(err)
			}
			comps[c], weights[c] = g, rng.Float64()
		}
		if k > 1 {
			weights[0] = 0 // a dead component is skipped, as in EM
		}
		m, err := NewGMM(weights, comps)
		if err != nil {
			t.Fatal(err)
		}
		mixes = append(mixes, m)
	}
	samples := make([][]float64, 200)
	for i := range samples {
		samples[i] = []float64{rng.NormFloat64() * 2, rng.NormFloat64(), rng.NormFloat64() - 1}
	}
	fitted, err := FitGMM(samples, 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	mixes = append(mixes, fitted)
	for mi, m := range mixes {
		for _, x := range samples[:50] {
			if got, want := m.LogProb(x), ref(m, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mixture %d: LogProb %v, per-call math.Log form %v", mi, got, want)
			}
		}
	}
	if _, err := NewGMM([]float64{1}, nil); err == nil {
		t.Fatal("want an error for weights without components")
	}
}

// FuzzViterbiStep compares the lattice with the textbook reference bit for
// bit on fuzzer-chosen tied lattices: the first two bytes pick the state
// count and sequence length, the rest cycle through the palette.
func FuzzViterbiStep(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 3, 4, 5, 0})
	f.Add([]byte{0, 0})
	f.Add([]byte{6, 11, 1, 1, 1, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, T, rest := int(data[0])%8+1, int(data[1])%16+1, data[2:]
		next := 0
		pick := func() int {
			if len(rest) == 0 {
				return 1
			}
			b := rest[next%len(rest)]
			next++
			return int(b) % len(tieValues)
		}
		h, obs := tiedHMM(n, T, 3, pick)
		checkViterbi(t, h, obs)
	})
}
