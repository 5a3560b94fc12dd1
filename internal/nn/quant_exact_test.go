package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The batched int8 kernel (qlayerBatch over packed row pairs) must return
// exactly what the single-frame dotInt8 path computes: the same integer
// per output, dequantized by the same float expression. These tests
// compare the two bit for bit.

// refLayer is the textbook form of qlayerBatch: one dotInt8 per output,
// dequantized as float64(acc)*(scales[i]*w.scales[o]) + bias[o] (+0 when
// bias is nil), optionally through fastTanh.
func refLayer(t, inW, outW int, qrows []int8, rstride int, scales []float64, w qmat, bias []float64, act bool) [][]float64 {
	out := make([][]float64, t)
	for i := range out {
		out[i] = make([]float64, outW)
		x := qrows[i*rstride : i*rstride+inW]
		for o := 0; o < outW; o++ {
			var b float64
			if bias != nil {
				b = bias[o]
			}
			v := float64(dotInt8(x, w.q[o*inW:(o+1)*inW]))*(scales[i]*w.scales[o]) + b
			if act {
				v = fastTanh(v)
			}
			out[i][o] = v
		}
	}
	return out
}

// checkLayer runs qlayerBatch and refLayer on the same operands and fails
// on the first output whose bits differ.
func checkLayer(tb testing.TB, t, inW, outW int, qrows []int8, scales []float64, w qmat, bias []float64, act bool) {
	tb.Helper()
	fout := make([]float64, t*outW)
	qlayerBatch(t, inW, outW, qrows, inW, scales, w, bias, act, fout, outW)
	want := refLayer(t, inW, outW, qrows, inW, scales, w, bias, act)
	for i := 0; i < t; i++ {
		for o := 0; o < outW; o++ {
			if got := fout[i*outW+o]; math.Float64bits(got) != math.Float64bits(want[i][o]) {
				tb.Fatalf("t=%d inW=%d outW=%d: frame %d output %d = %v, dotInt8 reference %v",
					t, inW, outW, i, o, got, want[i][o])
			}
		}
	}
}

// intMat builds a qmat straight from int8 weights with the given scales,
// packed exactly as quantizeMat packs.
func intMat(q []int8, scales []float64, rows, cols int) qmat {
	m := qmat{q: q, scales: scales}
	m.pack(rows, cols)
	return m
}

func randInt8s(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

// TestQLayerPackedMatchesDotInt8 sweeps layer widths 1..100 and row
// counts that are and are not multiples of 8 and 2. Unit scales make the
// compared floats the exact integer sums; a second pass with random
// scales, bias and tanh covers the dequantization.
func TestQLayerPackedMatchesDotInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for inW := 1; inW <= 100; inW++ {
		for _, outW := range []int{1, 2, 3, 7, 8, 9, 10, 15, 16, 17, 41} {
			frames := 1 + rng.Intn(4)
			q := randInt8s(rng, outW*inW)
			x := randInt8s(rng, frames*inW)
			ones := func(n int) []float64 {
				s := make([]float64, n)
				for i := range s {
					s[i] = 1
				}
				return s
			}
			checkLayer(t, frames, inW, outW, x, ones(frames), intMat(q, ones(outW), outW, inW), nil, false)

			ws, xs, bias := make([]float64, outW), make([]float64, frames), make([]float64, outW)
			for o := range ws {
				ws[o], bias[o] = rng.Float64()/127, rng.NormFloat64()
			}
			for i := range xs {
				xs[i] = rng.Float64() / 127
			}
			checkLayer(t, frames, inW, outW, x, xs, intMat(q, ws, outW, inW), bias, inW%2 == 0)
		}
	}
}

// TestQLayerPackedExtremes drives every lane to the edge of the exactness
// bound: all-±127 weights against all-±127 inputs at maxExactWidth, in
// every sign combination of a row pair's low and high lane, so the low
// lane's borrow from the high half and the largest lane magnitudes both
// occur.
func TestQLayerPackedExtremes(t *testing.T) {
	const inW = maxExactWidth
	if 127*127*inW > math.MaxInt32 || 127*127*(inW+1) <= math.MaxInt32 {
		t.Fatalf("maxExactWidth %d is not the largest width the int32 bound allows", inW)
	}
	// Row signs: pairs (+,+), (+,-), (-,+), (-,-), then (+,-) and a last
	// odd row, so the 8-row block, a tail pair and dotInt8 all run.
	signs := []int8{127, 127, 127, -127, -127, 127, -127, -127, 127, -127, -127}
	outW := len(signs)
	q := make([]int8, outW*inW)
	for r, s := range signs {
		for j := 0; j < inW; j++ {
			q[r*inW+j] = s
		}
	}
	x := make([]int8, 3*inW)
	for j := 0; j < inW; j++ {
		x[j], x[inW+j] = 127, -127
		x[2*inW+j] = 127
		if j%2 == 1 {
			x[2*inW+j] = -127
		}
	}
	scales := []float64{1, 1, 1}
	ws := make([]float64, outW)
	for o := range ws {
		ws[o] = 1
	}
	fout := make([]float64, 3*outW)
	qlayerBatch(3, inW, outW, x, inW, scales, intMat(q, ws, outW, inW), nil, false, fout, outW)
	full := float64(127 * 127 * inW)
	for r, s := range signs {
		for i, want := range []float64{full, -full, 0} {
			if s < 0 {
				want = -want
			}
			if got := fout[i*outW+r]; got != want {
				t.Fatalf("frame %d row %d = %v, want %v", i, r, got, want)
			}
		}
	}
	checkLayer(t, 3, inW, outW, x, scales, intMat(q, ws, outW, inW), nil, false)
}

// TestQuantizeMatRejectsInexactWidth checks the exactness bound is
// enforced where weights are quantized.
func TestQuantizeMatRejectsInexactWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want a panic for a layer wider than maxExactWidth")
		}
	}()
	quantizeMat(make([]float64, maxExactWidth+1), 1, maxExactWidth+1)
}

// refRNN is QuantizedRNN.ForwardSeq written step by step on dotInt8: the
// input projection, the recurrence and the output projection each
// quantize their input vector and take one dotInt8 per output row.
func refRNN(q *QuantizedRNN, xs [][]float64) [][]float64 {
	proj := func(w qmat, x []float64, rows int, bias []float64) []float64 {
		qx := make([]int8, len(x))
		sx := quantizeVecInto(x, qx)
		out := make([]float64, rows)
		for o := range out {
			var b float64
			if bias != nil {
				b = bias[o]
			}
			out[o] = float64(dotInt8(qx, w.q[o*len(x):(o+1)*len(x)]))*(sx*w.scales[o]) + b
		}
		return out
	}
	out := make([][]float64, len(xs))
	var h []float64
	for t, x := range xs {
		xc := proj(q.wx, x, q.hidden, nil)
		hc := make([]float64, q.hidden)
		if t > 0 {
			hc = proj(q.wh, h, q.hidden, nil)
		}
		h = make([]float64, q.hidden)
		for j := range h {
			h[j] = fastTanh(q.bh[j] + xc[j] + hc[j])
		}
		out[t] = proj(q.wy, h, q.out, q.by)
	}
	return out
}

// TestQuantizedRNNMatchesStepReference checks the batched sequence pass
// against the step-by-step dotInt8 reference, logit for logit, at shapes
// that exercise full 8-row blocks, tail pairs and odd rows.
func TestQuantizedRNNMatchesStepReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, shape := range [][3]int{{1, 1, 1}, {10, 12, 8}, {13, 7, 3}, {28, 48, 41}, {56, 17, 9}} {
		r, err := NewRNN(rng, shape[0], shape[1], shape[2])
		if err != nil {
			t.Fatal(err)
		}
		q := QuantizeRNN(r)
		xs := randFrames(rng, 40, shape[0])
		got := allocRows(len(xs), q.OutputSize())
		if err := q.ForwardSeq(xs, got, q.NewScratch()); err != nil {
			t.Fatal(err)
		}
		want := refRNN(q, xs)
		for i := range want {
			for o := range want[i] {
				if math.Float64bits(got[i][o]) != math.Float64bits(want[i][o]) {
					t.Fatalf("shape %v frame %d logit %d: ForwardSeq %v, step reference %v",
						shape, i, o, got[i][o], want[i][o])
				}
			}
		}
	}
}

// FuzzQLayerPacked compares the packed batched kernel with the dotInt8
// reference bit for bit on fuzzer-chosen shapes, weights and inputs.
func FuzzQLayerPacked(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(2), []byte{1, 2, 3, 255, 128, 127, 0})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{129})
	f.Add(uint8(17), uint8(16), uint8(3), []byte{127, 129, 127, 129})
	f.Fuzz(func(t *testing.T, inW, outW, frames uint8, data []byte) {
		in, out, n := int(inW)%64+1, int(outW)%40+1, int(frames)%5+1
		// Bytes cycle through the weights, then the inputs; -128 folds to
		// -127, the quantizer's range.
		next := 0
		val := func() int8 {
			if len(data) == 0 {
				return 0
			}
			v := int8(data[next%len(data)])
			next++
			return max(v, -127)
		}
		q := make([]int8, out*in)
		for i := range q {
			q[i] = val()
		}
		x := make([]int8, n*in)
		for i := range x {
			x[i] = val()
		}
		ws, xs, bias := make([]float64, out), make([]float64, n), make([]float64, out)
		for o := range ws {
			ws[o], bias[o] = float64(1+o%3)/127, float64(o%5)-2
		}
		for i := range xs {
			xs[i] = float64(1+i) / 127
		}
		w := intMat(q, ws, out, in)
		checkLayer(t, n, in, out, x, xs, w, nil, false)
		checkLayer(t, n, in, out, x, xs, w, bias, true)
	})
}
