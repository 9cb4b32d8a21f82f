package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail estimate resting on fewer is one or two unlucky requests.
const minBeyond = 10

// samples is one latency or duration series, in the unit it was
// recorded in.
type samples []float64

// percentile returns the p-th percentile (0 < p < 100) by linear
// interpolation between closest ranks. It refuses (ok=false) when
// fewer than minBeyond samples lie strictly beyond the requested rank,
// and the median only needs one sample.
func (s samples) percentile(p float64) (float64, bool) {
	n := len(s)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	if p > 50 && float64(n)*(100-p)/100 < minBeyond {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac, true
}

// median is percentile(50); it is defined for any non-empty series.
func (s samples) median() float64 {
	v, _ := s.percentile(50)
	return v
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// meanOfMedians is the mean of the medians of the non-empty series in
// classes, and how many there were.
func meanOfMedians(classes []samples) (float64, int) {
	var m samples
	for _, s := range classes {
		if len(s) > 0 {
			m = append(m, s.median())
		}
	}
	return m.mean(), len(m)
}

func (s samples) sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

// metric is one reported number. N is the sample count behind a
// sample statistic (0 for counts and rates).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	N       int
	Refused string // why a tail percentile was not estimated
}

// tail reports the p-th percentile of s as a metric, marked refused
// when the series is too short to support it.
func tail(name string, s samples, p float64) metric {
	v, ok := s.percentile(p)
	if !ok {
		why := fmt.Sprintf("refused: %d samples leave fewer than %d beyond p%g", len(s), minBeyond, p)
		for q := math.Floor(p) - 1; q > 50; q-- {
			if v, ok := s.percentile(q); ok {
				why += fmt.Sprintf("; p%g = %.4f ms", q, v)
				break
			}
		}
		return metric{Name: name, Unit: "ms", N: len(s), Refused: why}
	}
	return metric{Name: name, Value: v, Unit: "ms", N: len(s)}
}
