package nn

import (
	"fmt"
	"math"
)

// Int8-quantized inference for the MLP and RNN acoustic models.
//
// The detection hot path is frame classification: thousands of small
// matrix-vector products per clip, all bound by scalar multiply-add
// throughput on float64 weights. Quantizing weights to int8 with
// per-output-row symmetric scales moves every multiply-accumulate onto
// exact integers, and batching all of a clip's frames into one blocked
// matrix-matrix product per layer lets each loaded input value feed many
// weight rows — the form the scalar pipeline actually keeps busy. The
// batched kernel packs two adjacent weight rows into the two 32-bit lanes
// of one int64 (qmat.packed), so one 64-bit multiply performs two
// multiply-accumulates and an eight-row block needs only four
// accumulator registers. The lanes never interfere: every lane sum is
// bounded by 127²·inW < 2³¹ (maxExactWidth), the same bound an int32
// accumulator needs, so unpacking recovers exactly the integers the
// single-frame dotInt8 computes. Dequantization happens once per output
// (at the accumulator), so activations and logits stay float64 and the
// nonlinearities are exact.
//
// Quantized models are DERIVED state: they are built from a float model at
// load time (Quantize/QuantizeRNN), are never serialized, and hold no
// state the float model does not. Model fingerprints and verdict-cache
// keys therefore never see them. Callers gate their use behind an
// accuracy-parity check (see internal/asr) and fall back to the float
// model when the check fails. A quantized weight costs 1 byte (q) plus 4
// bytes of its packed copy.

// maxExactWidth is the widest layer input the integer kernels accumulate
// exactly: with |q| ≤ 127 each product is at most 127² = 16129, so a sum
// of up to maxExactWidth of them stays inside int32 — and inside one
// packed lane.
const maxExactWidth = math.MaxInt32 / (127 * 127)

// qmat is one int8-quantized matrix with per-output-row symmetric scales:
// the float weight w[r*cols+j] is approximated by scales[r] *
// float64(q[r*cols+j]). Per-row (per-output-channel) scales rather than
// one per-matrix scale: a single outlier row no longer inflates the
// quantization step of every other row, which is the difference between
// the acoustic MLPs passing and failing the transcription-parity gate.
//
// packed holds the rows in pairs for the batched kernel: row pair p
// occupies packed[p*cols : (p+1)*cols] with element j equal to
// int64(q[2p][j]) + int64(q[2p+1][j])<<32. An odd last row is not packed.
type qmat struct {
	q      []int8
	scales []float64
	packed []int64
}

// quantizeMat quantizes the rows x cols matrix w symmetrically, one scale
// per row: scales[r] = max|w[r]| / 127, q = round(w/scale) clamped to
// [-127, 127]. An all-zero row gets scale 0 and zero q, which dequantizes
// exactly. It panics if cols exceeds maxExactWidth.
func quantizeMat(w []float64, rows, cols int) qmat {
	if cols > maxExactWidth {
		panic(fmt.Sprintf("nn: layer input width %d exceeds the exact int8 accumulation bound %d", cols, maxExactWidth))
	}
	m := qmat{q: make([]int8, len(w)), scales: make([]float64, rows)}
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		var max float64
		for _, v := range row {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
		if max == 0 {
			continue
		}
		scale := max / 127
		m.scales[r] = scale
		inv := 1 / scale
		for j, v := range row {
			q := math.Round(v * inv)
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			m.q[r*cols+j] = int8(q)
		}
	}
	m.pack(rows, cols)
	return m
}

// pack derives packed from q: row pair p is int64(q[2p][j]) +
// int64(q[2p+1][j])<<32.
func (m *qmat) pack(rows, cols int) {
	m.packed = make([]int64, rows/2*cols)
	for p := 0; p < rows/2; p++ {
		lo, hi := m.q[2*p*cols:(2*p+1)*cols], m.q[(2*p+1)*cols:(2*p+2)*cols]
		dst := m.packed[p*cols : (p+1)*cols]
		for j := range dst {
			dst[j] = int64(lo[j]) + int64(hi[j])<<32
		}
	}
}

// quantizeVecInto quantizes one activation vector symmetrically into dst
// and returns the scale (0 for an all-zero vector).
func quantizeVecInto(x []float64, dst []int8) float64 {
	var max float64
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	if max == 0 {
		for i := range dst[:len(x)] {
			dst[i] = 0
		}
		return 0
	}
	scale := max / 127
	inv := 1 / scale
	for i, v := range x {
		q := math.Round(v * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}

// dotInt8 is the int8 x int8 -> int32 inner product of the single-frame
// path. With |q| <= 127 each term is bounded by 16129, so an int32
// accumulator is exact up to maxExactWidth (~133k) terms — orders of
// magnitude above any layer width in this repository. Four independent accumulators break the
// add dependency chain; integer addition is associative, so the result is
// identical to the naive loop.
func dotInt8(a, b []int8) int32 {
	var s0, s1, s2, s3 int32
	n := len(a) &^ 3
	_ = b[len(a)-1] // hoist the bound check out of the loop
	for i := 0; i < n; i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	acc := s0 + s1 + s2 + s3
	for i := n; i < len(a); i++ {
		acc += int32(a[i]) * int32(b[i])
	}
	return acc
}

// fastTanh is the rational tanh approximation used by the quantized
// paths: x·p(x²)/q(x²) with the classic 13/6-degree minimax coefficients
// (the same polynomial Eigen ships for float32), clamped to ±1 beyond
// |x| = 9. Max error is ~1e-7 — three orders of magnitude below int8
// quantization noise — and it avoids math.Tanh's exp-based evaluation.
// Both the single-frame and batched quantized paths use it, so they stay
// bit-identical to each other; float-vs-quantized decision parity is
// enforced at the engine level.
func fastTanh(x float64) float64 {
	if x > 9 {
		return 1
	}
	if x < -9 {
		return -1
	}
	x2 := x * x
	p := 2.00018790482477e-13 + x2*-2.76076847742355e-16
	p = -8.60467152213735e-11 + x2*p
	p = 5.12229709037114e-08 + x2*p
	p = 1.48572235717979e-05 + x2*p
	p = 6.37261928875436e-04 + x2*p
	p = 4.89352455891786e-03 + x2*p
	q := 1.19825839466702e-06
	q = 1.18534705686654e-04 + x2*q
	q = 2.26843463243900e-03 + x2*q
	q = 4.89352518554385e-03 + x2*q
	return x * p / q
}

// dotPacked8 computes the inner products of x against eight weight rows
// held as four packed row pairs (see qmat.packed). Each int64 multiply
// performs two multiply-accumulates, one per 32-bit lane, so eight rows
// need only four accumulators and every loaded input byte feeds all
// eight. Kept as its own function so the register allocator sees only
// these live values — inlined into qlayerBatch the surrounding state
// spills the accumulators to the stack every iteration.
//
//go:noinline
func dotPacked8(x []int8, p0, p1, p2, p3 []int64) (a0, a1, a2, a3 int64) {
	// Reslice the rows to len(x) so the compiler can prove every index
	// below is in bounds and drop the checks.
	p0, p1, p2, p3 = p0[:len(x)], p1[:len(x)], p2[:len(x)], p3[:len(x)]
	for j, xv8 := range x {
		xv := int64(xv8)
		a0 += xv * p0[j]
		a1 += xv * p1[j]
		a2 += xv * p2[j]
		a3 += xv * p3[j]
	}
	return a0, a1, a2, a3
}

// dotPacked2 is dotPacked8 for a single packed row pair: the tail of a
// matrix whose row count is not a multiple of eight.
func dotPacked2(x []int8, p []int64) int64 {
	p = p[:len(x)]
	var a int64
	for j, xv8 := range x {
		a += int64(xv8) * p[j]
	}
	return a
}

// unpackLanes splits a packed accumulator lo + hi·2³² into its two exact
// int32 lane sums. Both lanes satisfy |sum| ≤ 127²·inW < 2³¹
// (maxExactWidth), so the low 32 bits, read as a signed int32, are the
// low lane, and removing it leaves the high lane exactly in the upper
// half — any borrow the low lane made from the high half is undone.
func unpackLanes(a int64) (lo, hi int32) {
	lo = int32(a)
	hi = int32((a - int64(lo)) >> 32)
	return lo, hi
}

// qlayerBatch is the blocked int8 GEMM behind every batched layer: t
// quantized input rows (stride rstride, per-row scales) against an
// outW x inW quantized weight matrix, dequantized into float rows of fout
// (stride fstride), with optional bias and tanh. Output rows are blocked
// eight at a time over the packed row pairs, so each loaded input byte
// feeds eight multiply-accumulates in four int64 registers; leftover
// pairs run dotPacked2 and a last odd row dotInt8. Every lane sum is the
// exact integer dotInt8 would return, and the dequantization
// v = float64(acc)*(scales[i]*w.scales[o]) + bias matches the
// single-frame path term for term, so batching never changes a logit.
func qlayerBatch(t, inW, outW int, qrows []int8, rstride int, scales []float64, w qmat, bias []float64, act bool, fout []float64, fstride int) {
	var acc [8]int32
	for o, n := 0, 0; o < outW; o += n {
		n = min(len(acc), outW-o)
		if n > 1 {
			n &^= 1 // whole row pairs; a last odd row runs alone
		}
		ws, bs := w.scales[o:o+n], zeroBias[:n]
		if bias != nil {
			bs = bias[o : o+n]
		}
		pr := w.packed[(o/2)*inW:]
		for i := 0; i < t; i++ {
			x := qrows[i*rstride : i*rstride+inW]
			switch n {
			case 8:
				a0, a1, a2, a3 := dotPacked8(x, pr[:inW], pr[inW:2*inW], pr[2*inW:3*inW], pr[3*inW:4*inW])
				acc[0], acc[1] = unpackLanes(a0)
				acc[2], acc[3] = unpackLanes(a1)
				acc[4], acc[5] = unpackLanes(a2)
				acc[6], acc[7] = unpackLanes(a3)
			case 1:
				acc[0] = dotInt8(x, w.q[o*inW:o*inW+inW])
			default:
				for k := 0; k < n; k += 2 {
					acc[k], acc[k+1] = unpackLanes(dotPacked2(x, pr[(k/2)*inW:(k/2+1)*inW]))
				}
			}
			dequantInto(fout[i*fstride+o:i*fstride+o+n], acc[:n], scales[i], ws, bs, act)
		}
	}
}

// zeroBias stands in for a nil bias in qlayerBatch's dequantization: a
// bias-free output still adds +0, which turns a -0 product into +0 the
// way the single-frame form float64(acc)*scale + bias does.
var zeroBias [8]float64

// dequantInto turns exact accumulators into float outputs:
// dst[k] = acc[k]·(si·ws[k]) + bs[k], optionally through fastTanh.
func dequantInto(dst []float64, acc []int32, si float64, ws, bs []float64, act bool) {
	ws, bs = ws[:len(acc)], bs[:len(acc)]
	for k, s := range acc {
		v := float64(s)*(si*ws[k]) + bs[k]
		if act {
			v = fastTanh(v)
		}
		dst[k] = v
	}
}

// QuantizedMLP is the int8 inference form of an MLP: per-output-row
// symmetric weight scales, float64 biases, int32 accumulation, dequantization at
// each layer's output. Safe for concurrent use once built (all fields are
// read-only); per-call scratch lives in QuantScratch.
type QuantizedMLP struct {
	sizes []int
	w     []qmat
	b     [][]float64
}

// Quantize derives the int8 inference model from m. The float model is
// not retained; weights are copied into quantized form.
func Quantize(m *MLP) *QuantizedMLP {
	q := &QuantizedMLP{
		sizes: append([]int(nil), m.Sizes...),
		w:     make([]qmat, len(m.W)),
		b:     make([][]float64, len(m.B)),
	}
	for l := range m.W {
		q.w[l] = quantizeMat(m.W[l], m.Sizes[l+1], m.Sizes[l])
		q.b[l] = append([]float64(nil), m.B[l]...)
	}
	return q
}

// InputSize returns the expected input dimension.
func (q *QuantizedMLP) InputSize() int { return q.sizes[0] }

// OutputSize returns the logits dimension.
func (q *QuantizedMLP) OutputSize() int { return q.sizes[len(q.sizes)-1] }

// maxWidth returns the widest layer dimension.
func (q *QuantizedMLP) maxWidth() int {
	maxW := 0
	for _, s := range q.sizes {
		if s > maxW {
			maxW = s
		}
	}
	return maxW
}

// QuantScratch holds the reusable buffers of quantized forward passes. One
// scratch belongs to one goroutine at a time.
type QuantScratch struct {
	qin  []int8      // quantized current-layer input (single-frame path)
	acts [][]float64 // float outputs per layer (single-frame path)

	// Batch buffers, sized lazily to the largest utterance seen.
	qbatch []int8    // T x maxWidth quantized activations, row-major
	scales []float64 // per-frame activation scales
	fbatch []float64 // T x maxWidth float activations of the current layer
}

// NewScratch allocates a scratch sized for q's layers.
func (q *QuantizedMLP) NewScratch() *QuantScratch {
	sc := &QuantScratch{
		qin:  make([]int8, q.maxWidth()),
		acts: make([][]float64, len(q.w)),
	}
	for l := range q.w {
		sc.acts[l] = make([]float64, q.sizes[l+1])
	}
	return sc
}

// Forward computes logits for one input vector using scratch buffers. The
// returned slice aliases scratch and is valid until the next call.
func (q *QuantizedMLP) Forward(x []float64, scratch *QuantScratch) ([]float64, error) {
	if len(x) != q.InputSize() {
		return nil, fmt.Errorf("nn: input size %d, want %d", len(x), q.InputSize())
	}
	cur := x
	for l := range q.w {
		in, out := q.sizes[l], q.sizes[l+1]
		sx := quantizeVecInto(cur, scratch.qin)
		qx := scratch.qin[:in]
		next := scratch.acts[l]
		wq := q.w[l].q
		ws := q.w[l].scales
		for o := 0; o < out; o++ {
			acc := dotInt8(qx, wq[o*in:(o+1)*in])
			s := float64(acc)*(sx*ws[o]) + q.b[l][o]
			if l < len(q.w)-1 {
				s = fastTanh(s)
			}
			next[o] = s
		}
		cur = next
	}
	return cur, nil
}

// ensureBatch sizes the scratch's batch buffers for T rows of width w.
func (sc *QuantScratch) ensureBatch(t, w int) {
	if cap(sc.qbatch) < t*w {
		sc.qbatch = make([]int8, t*w)
	}
	sc.qbatch = sc.qbatch[:t*w]
	if cap(sc.scales) < t {
		sc.scales = make([]float64, t)
	}
	sc.scales = sc.scales[:t]
	if cap(sc.fbatch) < t*w {
		sc.fbatch = make([]float64, t*w)
	}
	sc.fbatch = sc.fbatch[:t*w]
}

// ForwardBatch runs the whole utterance through the network with one
// blocked matrix-matrix product per layer: all T frames are quantized
// (per-frame scales, shared int8 weight matrix), multiplied, dequantized,
// activated, and re-quantized as the next layer's input. out must have T
// rows of OutputSize(); rows are fully overwritten. Each frame's logits
// are bit-identical to the single-frame Forward path — the per-frame
// scale makes rows independent, and the blocked integer accumulation is
// exact.
func (q *QuantizedMLP) ForwardBatch(xs [][]float64, out [][]float64, scratch *QuantScratch) error {
	t := len(xs)
	if t == 0 {
		return nil
	}
	if len(out) < t {
		return fmt.Errorf("nn: batch output has %d rows, want %d", len(out), t)
	}
	maxW := q.maxWidth()
	scratch.ensureBatch(t, maxW)
	in := q.sizes[0]
	for i, x := range xs {
		if len(x) != in {
			return fmt.Errorf("nn: frame %d has size %d, want %d", i, len(x), in)
		}
		scratch.scales[i] = quantizeVecInto(x, scratch.qbatch[i*maxW:i*maxW+in])
	}
	last := len(q.w) - 1
	for l := range q.w {
		inW, outW := q.sizes[l], q.sizes[l+1]
		qlayerBatch(t, inW, outW, scratch.qbatch, maxW, scratch.scales, q.w[l], q.b[l], l != last, scratch.fbatch, maxW)
		if l != last {
			for i := 0; i < t; i++ {
				frow := scratch.fbatch[i*maxW : i*maxW+outW]
				scratch.scales[i] = quantizeVecInto(frow, scratch.qbatch[i*maxW:i*maxW+outW])
			}
		}
	}
	outW := q.OutputSize()
	for i := 0; i < t; i++ {
		copy(out[i][:outW], scratch.fbatch[i*maxW:i*maxW+outW])
	}
	return nil
}

// QuantizedRNN is the int8 inference form of an Elman RNN. The
// input-to-hidden contribution of every timestep is one blocked batch
// product up front; the recurrent hidden-to-hidden term stays sequential
// (each step depends on the previous hidden state) but runs blocked on
// int8 with the hidden state quantized once per step; the output
// projection is one blocked batch product over the collected hidden
// states.
type QuantizedRNN struct {
	in, hidden, out int
	wx, wh, wy      qmat
	bh, by          []float64
}

// QuantizeRNN derives the int8 inference model from r.
func QuantizeRNN(r *RNN) *QuantizedRNN {
	return &QuantizedRNN{
		in: r.In, hidden: r.Hidden, out: r.Out,
		wx: quantizeMat(r.Wx, r.Hidden, r.In),
		wh: quantizeMat(r.Wh, r.Hidden, r.Hidden),
		wy: quantizeMat(r.Wy, r.Out, r.Hidden),
		bh: append([]float64(nil), r.Bh...),
		by: append([]float64(nil), r.By...),
	}
}

// RNNQuantScratch holds the reusable buffers of one ForwardSeq call.
type RNNQuantScratch struct {
	qxs     []int8    // T x in quantized input frames
	xscales []float64 // per-frame input scales
	xContr  []float64 // T x hidden input-projection contributions
	h       []float64 // current hidden state (float)
	whc     []float64 // hidden: recurrent contribution of the current step
	qhs     []int8    // T x hidden quantized hidden states
	hscales []float64 // per-frame hidden-state scales
	yout    []float64 // T x out logits
}

// NewScratch allocates a scratch for q.
func (q *QuantizedRNN) NewScratch() *RNNQuantScratch {
	return &RNNQuantScratch{
		h:   make([]float64, q.hidden),
		whc: make([]float64, q.hidden),
	}
}

// OutputSize returns the logits dimension.
func (q *QuantizedRNN) OutputSize() int { return q.out }

func ensureI8(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}

func ensureF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ForwardSeq computes per-frame logits for the sequence. out must have
// len(xs) rows of OutputSize(); rows are fully overwritten.
func (q *QuantizedRNN) ForwardSeq(xs [][]float64, out [][]float64, sc *RNNQuantScratch) error {
	t := len(xs)
	if t == 0 {
		return nil
	}
	if len(out) < t {
		return fmt.Errorf("nn: batch output has %d rows, want %d", len(out), t)
	}
	sc.qxs = ensureI8(sc.qxs, t*q.in)
	sc.xscales = ensureF64(sc.xscales, t)
	sc.xContr = ensureF64(sc.xContr, t*q.hidden)
	sc.qhs = ensureI8(sc.qhs, t*q.hidden)
	sc.hscales = ensureF64(sc.hscales, t)
	sc.yout = ensureF64(sc.yout, t*q.out)
	for i, x := range xs {
		if len(x) != q.in {
			return fmt.Errorf("nn: frame %d has size %d, want %d", i, len(x), q.in)
		}
		sc.xscales[i] = quantizeVecInto(x, sc.qxs[i*q.in:(i+1)*q.in])
	}
	// Batched input projection: Wx applied to every frame at once (no
	// bias, no activation — the recurrence adds both).
	qlayerBatch(t, q.in, q.hidden, sc.qxs, q.in, sc.xscales, q.wx, nil, false, sc.xContr, q.hidden)
	// Sequential recurrence; the hidden state is quantized once per step
	// (for the next step's Wh product and the final Wy batch).
	for i := 0; i < t; i++ {
		if i == 0 {
			for j := range sc.whc {
				sc.whc[j] = 0
			}
		} else {
			qlayerBatch(1, q.hidden, q.hidden, sc.qhs[(i-1)*q.hidden:i*q.hidden], q.hidden,
				sc.hscales[i-1:i], q.wh, nil, false, sc.whc, q.hidden)
		}
		xrow := sc.xContr[i*q.hidden : (i+1)*q.hidden]
		for j := 0; j < q.hidden; j++ {
			sc.h[j] = fastTanh(q.bh[j] + xrow[j] + sc.whc[j])
		}
		sc.hscales[i] = quantizeVecInto(sc.h, sc.qhs[i*q.hidden:(i+1)*q.hidden])
	}
	// Batched output projection over the collected hidden states.
	qlayerBatch(t, q.hidden, q.out, sc.qhs, q.hidden, sc.hscales, q.wy, q.by, false, sc.yout, q.out)
	for i := 0; i < t; i++ {
		copy(out[i][:q.out], sc.yout[i*q.out:(i+1)*q.out])
	}
	return nil
}
