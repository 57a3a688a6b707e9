package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 0; i < 985; i++ {
		xs = append(xs, 5)
	}
	for i := 0; i < 15; i++ {
		xs = append(xs, failedSample)
	}
	if v, _, ok := percentile(xs, 50, 10); !ok || v != 5 {
		t.Errorf("p50 = %v (ok=%t), want 5", v, ok)
	}
	// 15 of 1000 operations failed, so p99 lands on a failure.
	if v, _, _ := percentile(xs, 99, 10); !math.IsInf(v, 1) {
		t.Errorf("p99 = %v, want +Inf when more than 1%% of operations failed", v)
	}
	rep := newReport(10)
	if v := rep.pct("op_p99_ms", xs, 99); v != math.MaxFloat64 {
		t.Errorf("reported p99 = %v, want the largest float for a failed tail", v)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{100, 90, 10, true},
		{99, 90, 9, false},
		{20, 50, 10, true},
		{19, 50, 9, false},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, beyond, ok := percentile(xs, c.p, 10)
		if beyond != c.beyond || ok != c.ok {
			t.Errorf("p%v of %d samples: beyond=%d ok=%t, want %d %t", c.p, c.n, beyond, ok, c.beyond, c.ok)
		}
	}
	rep := newReport(10)
	rep.pct("op_p90_ms", make([]float64, 99), 90)
	if len(rep.short) != 1 {
		t.Errorf("a p90 over 99 samples was not marked short: %v", rep.short)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of odd count = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v, want 0", m)
	}
}

func sp(start, end int) span {
	return span{Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(30, 50)}, 70},
		{"nested", []span{sp(10, 60), sp(20, 30), sp(40, 50)}, 50},
		{"overlapping", []span{sp(10, 30), sp(20, 40), sp(35, 45)}, 65},
		{"touching", []span{sp(10, 20), sp(20, 30)}, 80},
		{"sticking out", []span{sp(-10, 10), sp(90, 120)}, 80},
		{"outside", []span{sp(-20, -10), sp(100, 130)}, 100},
		{"covering", []span{sp(-5, 105)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}
