package main

import (
	"math"
	"sort"
)

// percentileLadder are the percentiles a report may name, lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// supportedPercentile returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it — the highest one a
// sample of that size can carry. It returns 0 when not even the median
// qualifies.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(1-p/100) >= 10, safe from rounding
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// histPercentile is the p-th percentile of whole-number samples given as
// counts per value, taking the samples of one value as spread evenly
// over [value−½, value+½): the grouped-data percentile, which moves
// smoothly with the counts where the nearest rank would stick to one
// whole number.
func histPercentile(counts []int64, p float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	want := p / 100 * float64(n)
	var below int64
	for v, c := range counts {
		if c > 0 && float64(below+c) >= want {
			return float64(v) - 0.5 + (want-float64(below))/float64(c)
		}
		below += c
	}
	return 0
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), which
// is what the acceptance gate uses for run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// windowRates cuts [from, to) into equal windows of the given width and
// returns one event rate per window, in events per second: the number of
// events from the window's first event up to, not including, the next
// window's first event, over the time between those two events. Counting
// between events rather than between window edges keeps a window's rate
// unbiased when completions arrive in bursts, and gives the same answer
// wherever the edges fall between two bursts. A window with no event, or
// with no event after it to close it, yields no rate. times are seconds
// and need not be sorted.
func windowRates(times []float64, from, to, width float64) []float64 {
	nwin := int((to-from)/width + 1e-9)
	if nwin < 1 {
		return nil
	}
	sorted := sortedCopy(times)
	// first[i] is the index of the first event at or after window i's
	// left edge; first[nwin] closes the last window.
	first := make([]int, nwin+1)
	for i := range first {
		edge := from + float64(i)*width
		first[i] = sort.SearchFloat64s(sorted, edge)
	}
	var rates []float64
	for i := 0; i < nwin; i++ {
		lo, hi := first[i], first[i+1]
		if hi >= len(sorted) || hi == lo {
			continue
		}
		if span := sorted[hi] - sorted[lo]; span > 0 {
			rates = append(rates, float64(hi-lo)/span)
		}
	}
	return rates
}
