package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p percent of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// so the spread this benchmark reports is the one its users compute.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}
