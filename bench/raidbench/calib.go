package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// calibRefMs is calibrate's result on an uncontended 2-vCPU Intel Xeon
// VM, the machine the bounds in BENCHMARK.json were set on. Normalized
// times read as seconds on that machine.
const calibRefMs = 4.0

// calibrate times a fixed kernel that uses no raidrel code (xorshift, log,
// exp, random loads and stores into a 512 KiB working set) on every CPU at
// once, and returns the fastest of several bursts in ms: how fast the
// machine is right now. The parent runs it between reps, never while a rep
// runs, so the program under test cannot affect it.
func calibrate() float64 {
	nproc := runtime.GOMAXPROCS(0)
	bufs := make([][]float64, nproc)
	for p := range bufs {
		bufs[p] = make([]float64, 1<<16)
	}
	sums := make([]float64, nproc)
	best := math.Inf(1)
	for burst := 0; burst < 5; burst++ {
		start := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < nproc; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				sums[p] += calibKernel(uint64(burst*nproc+p+1), bufs[p])
			}(p)
		}
		wg.Wait()
		best = min(best, ms(time.Since(start)))
	}
	for _, s := range sums {
		calibSink += s
	}
	return best
}

// calibSink keeps the calibration kernel from being optimized away.
var calibSink float64

func calibKernel(x uint64, buf []float64) float64 {
	sum := 0.0
	for i := 0; i < 150000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := math.Log(float64(x>>11) + 1)
		j := int(x & (1<<16 - 1))
		buf[j] += v
		sum += math.Exp(-v) * buf[(j*7)&(1<<16-1)]
	}
	return sum
}

// normalize rescales a rep's end-to-end metrics from the machine speed
// measured next to it (its calibration in ms) to the reference speed, each
// by its declared elasticity. hits are the rep's hit latencies.
func normalize(metrics map[string]float64, hits []float64, speed float64) {
	for _, d := range endToEnd {
		v, ok := metrics[d.Name]
		if !ok || d.Elasticity == 0 {
			continue
		}
		f := math.Pow(calibRefMs/speed, d.Elasticity)
		if d.Better == "higher" {
			f = 1 / f
		}
		metrics[d.Name] = v * f
		if d.Name == "hit_p50_ms" {
			for i := range hits {
				hits[i] *= f
			}
		}
	}
}
