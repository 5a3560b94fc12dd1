package hmm

import (
	"fmt"
	"math"
)

// ViterbiState runs the Viterbi dynamic program one observation at a
// time, so streaming consumers can advance the lattice as frames arrive
// and materialize a provisional best path at any point. Step performs
// exactly the per-column update of HMM.Viterbi (same tie-breaking, same
// accumulation order), and Path on a T-observation state returns exactly
// what Viterbi would return for those T observations.
//
// A ViterbiState is owned by one goroutine; the parent *HMM stays shared.
type ViterbiState struct {
	h         *HMM
	prevDelta []float64
	delta     []float64
	// back holds one row of NumStates back-pointers per observation after
	// the first, appended to one growing slab: row t-1 names, for every
	// state at time t, its best predecessor at time t-1.
	back []int32
	t    int
}

// Stream returns a fresh incremental Viterbi lattice over h. frames is
// the number of observations expected, when known, so the back-pointer
// slab is sized once; 0 lets it grow as observations arrive.
func (h *HMM) Stream(frames int) *ViterbiState {
	return &ViterbiState{
		h:         h,
		prevDelta: make([]float64, h.NumStates),
		delta:     make([]float64, h.NumStates),
		back:      make([]int32, 0, max(frames-1, 0)*h.NumStates),
	}
}

// Len returns the number of observations consumed so far.
func (v *ViterbiState) Len() int { return v.t }

// Step advances the lattice by one observation. The max over
// predecessors i scans column j of the transposed transition matrix in
// increasing i, adding prevDelta[i] + LogTrans[i][j] and keeping the
// first strict maximum — the textbook recurrence, term for term.
func (v *ViterbiState) Step(obs []float64) {
	h, n := v.h, v.h.NumStates
	if v.t == 0 {
		for i := 0; i < n; i++ {
			v.prevDelta[i] = h.LogInit[i] + h.Emitters[i].LogProb(obs)
		}
		v.t = 1
		return
	}
	prev := v.prevDelta[:n]
	off := len(v.back)
	v.back = append(v.back, make([]int32, n)...)
	bt := v.back[off : off+n]
	for j := range bt {
		col := h.logTransT[j*n:][:len(prev)]
		bestScore, bestState := math.Inf(-1), 0
		for i, p := range prev {
			if s := p + col[i]; s > bestScore {
				bestScore, bestState = s, i
			}
		}
		v.delta[j] = bestScore + h.Emitters[j].LogProb(obs)
		bt[j] = int32(bestState)
	}
	v.prevDelta, v.delta = v.delta, v.prevDelta
	v.t++
}

// Path backtraces the best path over everything consumed so far. Calling
// it does not disturb the lattice: more Steps may follow, which is how
// sliding-window verdicts read a provisional alignment mid-stream.
func (v *ViterbiState) Path() ([]int, float64, error) {
	if v.t == 0 {
		return nil, 0, fmt.Errorf("hmm: empty observation sequence")
	}
	bestScore, bestState := math.Inf(-1), 0
	for i := 0; i < v.h.NumStates; i++ {
		if v.prevDelta[i] > bestScore {
			bestScore, bestState = v.prevDelta[i], i
		}
	}
	if math.IsInf(bestScore, -1) {
		return nil, bestScore, fmt.Errorf("hmm: all paths have zero probability")
	}
	path := make([]int, v.t)
	path[v.t-1] = bestState
	for t := v.t - 1; t > 0; t-- {
		path[t-1] = int(v.back[(t-1)*v.h.NumStates+path[t]])
	}
	return path, bestScore, nil
}
