package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted xs by the nearest-rank
// rule; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentiles are the candidates for a latency tail: the highest one
// with at least tailMinBeyond samples beyond it is reported.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

const tailMinBeyond = 10

// tailPercentile is the highest of tailPercentiles with at least
// tailMinBeyond of n samples beyond it.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= tailMinBeyond {
			best = p
		}
	}
	return best
}

// tailStat is a latency tail made steady: the samples are split into
// consecutive windows (by due time); in each window the highest
// percentile with at least tailMinBeyond samples beyond it is taken, and the
// median over windows is reported with that percentile and the
// per-window sample count.
type tailStat struct {
	value      float64 // ms
	percentile float64
	perWindow  int
	windows    int
}

// sample is one latency observation keyed by its due time.
type sample struct {
	due int64
	ms  float64
}

func computeTail(samples []sample, start, window int64) tailStat {
	if len(samples) == 0 || window <= 0 {
		return tailStat{}
	}
	byWin := map[int64][]float64{}
	for _, s := range samples {
		w := (s.due - start) / window
		byWin[w] = append(byWin[w], s.ms)
	}
	// The percentile is fixed by the smallest full window, so every
	// window reports the same one.
	smallest := len(samples)
	for _, xs := range byWin {
		smallest = min(smallest, len(xs))
	}
	p := tailPercentile(smallest)
	var vals []float64
	for _, xs := range byWin {
		sort.Float64s(xs)
		vals = append(vals, quantile(xs, p/100))
	}
	return tailStat{value: median(vals), percentile: p, perWindow: smallest, windows: len(byWin)}
}
