package main

import (
	"errors"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5}, 5, 5, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	v, beyond, err := tailPercentile(xs, 90)
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %g (beyond %d, err %v), want 90 with 10 beyond", v, beyond, err)
	}
	v, beyond, err = tailPercentile(xs[:99], 90)
	if err == nil {
		t.Fatalf("p90 of 99 samples = %g with %d beyond: want an error", v, beyond)
	}
	if beyond != 9 {
		t.Fatalf("p90 of 99 samples: %d beyond, want 9", beyond)
	}
	if _, _, err := tailPercentile(nil, 90); err == nil {
		t.Fatal("p90 of no samples: want an error")
	}
}

func TestTallyErrorRate(t *testing.T) {
	var tl tally
	if tl.errorRate() != 0 {
		t.Fatal("empty tally: want error rate 0")
	}
	for i := 0; i < 8; i++ {
		var err error
		if i%4 == 1 {
			err = errors.New("payload mismatch")
		}
		tl.record(err)
	}
	if tl.attempted != 8 || tl.failed != 2 || !near(tl.errorRate(), 0.25) {
		t.Fatalf("tally = %d attempted, %d failed, rate %g; want 8, 2, 0.25", tl.attempted, tl.failed, tl.errorRate())
	}
	for i := 0; i < 2*maxReasons; i++ {
		tl.record(errors.New("deadlock"))
	}
	if len(tl.reasons) != maxReasons {
		t.Fatalf("tally kept %d reasons, want %d", len(tl.reasons), maxReasons)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 25, EndNs: 50}, // overlaps a by 5
		{ID: 4, Parent: 3, Name: "b.1", StartNs: 30, EndNs: 40},
		{ID: 5, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // runs past its parent
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 25 - 10, 4: 10, 5: 30}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestSpanLogNesting(t *testing.T) {
	l := newSpanLog("run-1")
	l.do("outer", func() {
		l.do("inner", func() {})
	})
	l.do("next", func() {})
	if len(l.spans) != 3 || len(l.open) != 0 {
		t.Fatalf("got %d spans, %d open; want 3 closed", len(l.spans), len(l.open))
	}
	outer, inner, next := l.spans[0], l.spans[1], l.spans[2]
	if outer.Parent != 0 || inner.Parent != outer.ID || next.Parent != 0 {
		t.Fatalf("parents = %d %d %d, want 0 %d 0", outer.Parent, inner.Parent, next.Parent, outer.ID)
	}
	if inner.StartNs < outer.StartNs || inner.EndNs > outer.EndNs || inner.Run != "run-1" {
		t.Fatalf("inner span %+v not inside outer %+v", inner, outer)
	}
}
