package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs must not be empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so a spread computed here matches one computed
// from the printed values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// minBeyondTail is how many samples must lie above a reported tail
// percentile for it to be meaningful.
const minBeyondTail = 10

// tailPercentile returns the nearest-rank p-th percentile of xs
// (0 < p < 100) and how many samples lie strictly above its rank. It
// returns an error when fewer than minBeyondTail samples lie beyond it.
func tailPercentile(xs []float64, p float64) (v float64, beyond int, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", p)
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(s) - rank
	v = s[rank-1]
	if beyond < minBeyondTail {
		return v, beyond, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p, len(s), beyond, minBeyondTail)
	}
	return v, beyond, nil
}

// tally counts simulations attempted and failed, keeping the first few
// failure reasons for the log.
type tally struct {
	attempted, failed int
	reasons           []string
}

// maxReasons bounds how many failure reasons a tally keeps.
const maxReasons = 5

// record counts one attempted simulation, failed when err is non-nil.
func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, err.Error())
	}
}

// errorRate is failed over attempted (0 when nothing was attempted).
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
