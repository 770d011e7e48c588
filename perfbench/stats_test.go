package main

import (
	"testing"
	"time"
)

func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, c := range []struct {
		n         int
		value, pc float64
	}{
		{100, 90, 90}, // p90 leaves exactly ten beyond; p95 only five
		{99, 75, 75},  // p90 would leave nine
		{80, 60, 75},
		{40, 30, 75},
		{39, 20, 50},
		{20, 10, 50},
	} {
		got, ok := tailOf(xs[100-c.n:]) // the samples 1..n
		if !ok || got.Value != c.value || got.Pct != c.pc || got.N != c.n {
			t.Errorf("tail of 1..%d = %+v (ok %t), want %v at p%v", c.n, got, ok, c.value, c.pc)
		}
	}
	if _, ok := tailOf(xs[81:]); ok {
		t.Error("19 samples: a tail was reported with fewer than ten beyond the median")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLadder(t *testing.T) {
	for _, rate := range []float64{0.5, 1, 7.3, 10, 33.2} {
		i := rungAtOrBelow(rate)
		if rung(i) > rate*(1+1e-9) || rung(i+1) <= rate {
			t.Errorf("rungAtOrBelow(%v) = %d (%v, next %v)", rate, i, rung(i), rung(i+1))
		}
	}
	for i := 1; i < 80; i++ {
		if step := rung(i)/rung(i-1) - 1; step > 0.10+1e-9 {
			t.Fatalf("ladder step %d is %.3f, above 10%%", i, step)
		}
	}
}

func TestBisectRungs(t *testing.T) {
	for _, limit := range []int{10, 11, 25, 41} {
		probes := 0
		got := bisectRungs(10, 42, func(step int) bool {
			probes++
			return step <= limit
		})
		if got != limit {
			t.Errorf("limit %d: bisection found %d", limit, got)
		}
		if probes > 5 {
			t.Errorf("limit %d: %d probes for a 32-step bracket, want <= 5", limit, probes)
		}
	}
}

func TestSLOMet(t *testing.T) {
	s := slo{TailLimit: 500 * time.Millisecond}
	ok := verdict{Rate: 10, Tail: tail{Value: 400, Pct: 75, N: 40}}
	const service = 20.0
	if !s.met(ok, true, service) {
		t.Fatal("a passing probe missed")
	}
	for name, c := range map[string]struct {
		v        verdict
		haveTail bool
	}{
		"tail over the limit": {verdict{Rate: 10, Tail: tail{Value: 501}}, true},
		"a failed request":    {verdict{Rate: 10, Tail: ok.Tail, Failed: 1}, true},
		"aborted":             {verdict{Rate: 10, Tail: ok.Tail, Aborted: true}, true},
		"backlog growing":     {verdict{Rate: 21, Tail: ok.Tail}, true},
		"no tail":             {verdict{Rate: 10}, false},
	} {
		if s.met(c.v, c.haveTail, service) {
			t.Errorf("%s: met the SLO", name)
		}
	}
}

func TestSustained(t *testing.T) {
	res := []sent{
		{Start: 0, Done: 100 * time.Millisecond},
		{Start: 0, Done: 200 * time.Millisecond},
		{Start: 100 * time.Millisecond, Done: 300 * time.Millisecond},
		{Start: 200 * time.Millisecond, Done: 400 * time.Millisecond},
		{}, // never sent
	}
	if got := sustained(res); got != 10 {
		t.Errorf("sustained = %v, want 4 requests in 0.4s = 10/s", got)
	}
}
