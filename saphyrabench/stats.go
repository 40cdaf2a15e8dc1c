package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds, us to microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minTailSamples is how many samples a reported quantile must have beyond
// it.
const minTailSamples = 10

// windowSize is how many requests a window needs for its q-quantile to
// have minTailSamples beyond it.
func windowSize(q float64) int { return int(math.Ceil(minTailSamples/(1-q) - 1e-9)) }

// split cuts the latencies, in request order, into windows of at least
// size consecutive requests.
func split(lat []float64, size int) [][]float64 {
	n := max(1, len(lat)/size)
	ws := make([][]float64, 0, n)
	for k := 0; k < n; k++ {
		if lo, hi := k*len(lat)/n, (k+1)*len(lat)/n; lo < hi {
			ws = append(ws, lat[lo:hi])
		}
	}
	return ws
}

// windowQuantile is the latencies' q-quantile as the benchmark reports it:
// the median, over windows of windowSize(q) consecutive requests, of each
// window's q-quantile, so one stall moves one window rather than the
// figure.
func windowQuantile(lat []float64, q float64) float64 {
	ws := split(lat, windowSize(q))
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = quantile(slices.Clone(w), q)
	}
	return median(xs)
}

// rate is a closed loop's completions per second over the whole loop. A
// mean rather than a median over shorter windows: the loop's requests
// differ in cost by an order of magnitude, and only the whole loop holds
// enough of each kind for their mix to settle.
func rate(done []time.Duration, elapsed time.Duration) float64 {
	return float64(len(done)) / elapsed.Seconds()
}
