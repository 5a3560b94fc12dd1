package main

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"time"
)

// machineProbe times a fixed CPU task on every CPU at once: float
// matrix-vector products and SHA-256 over a small buffer, the two kinds
// of work the daemon's miss and hit paths do, in code that does not
// belong to the program under test. It returns the wall time of the
// slowest CPU; a shared machine that slows down takes longer. A
// collection first keeps this process's own garbage collector out of
// the timing.
func machineProbe(cpus int) time.Duration {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cpus; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeWork()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// probeSink keeps the probe's results alive so the compiler cannot
// drop the work.
var probeSink struct {
	sync.Mutex
	v float64
	h [32]byte
}

func probeWork() {
	const n = 64
	m := make([]float64, n*n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range m {
		m[i] = float64(i%7) * 0.01
	}
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	buf := make([]byte, 8<<10)
	var h [32]byte
	for round := 0; round < 3000; round++ {
		for r := 0; r < n; r++ {
			var s float64
			row := m[r*n : (r+1)*n]
			for c, v := range row {
				s += v * x[c]
			}
			y[r] = s
		}
		x, y = y, x
		buf[round%len(buf)] = h[0]
		h = sha256.Sum256(buf)
	}
	probeSink.Lock()
	probeSink.v += x[0]
	probeSink.h = h
	probeSink.Unlock()
}
