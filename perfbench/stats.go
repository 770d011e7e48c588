package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: a percentile with fewer samples past it is one request's
// luck, not a property of the system.
const tailBeyond = 10

// tailPercentiles are the percentiles a tail is chosen from.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tail is the highest percentile with at least tailBeyond samples beyond
// it.
type tail struct {
	Value float64 // the sample at that percentile (nearest rank)
	Pct   float64
	N     int // samples it was chosen from
}

// tailOf selects the tail of xs: the highest of tailPercentiles whose
// nearest-rank sample has at least tailBeyond samples above it. ok is
// false when not even the median has (n < 2·tailBeyond).
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	t.N = n
	s := sortedCopy(xs)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 || n-rank < tailBeyond {
			break
		}
		t.Value, t.Pct, ok = s[rank-1], p, true
	}
	return t, ok
}

// median is the middle of xs (the mean of the two middle samples for even
// n); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The max_rps ladder: every candidate rate is ladderBase·ladderRatio^i
// requests per second. Fixing the rungs once keeps runs comparable — two
// runs can only disagree by whole rungs — and the 5% step bounds the
// rounding of any answer.
const (
	ladderBase  = 0.5
	ladderRatio = 1.05
)

// rung is the rate of ladder step i.
func rung(i int) float64 { return ladderBase * math.Pow(ladderRatio, float64(i)) }

// rungAtOrBelow is the highest step whose rate does not exceed rate.
func rungAtOrBelow(rate float64) int {
	i := int(math.Floor(math.Log(rate/ladderBase) / math.Log(ladderRatio)))
	for i > 0 && rung(i) > rate*(1+1e-9) {
		i--
	}
	for rung(i+1) <= rate*(1+1e-9) {
		i++
	}
	return i
}

// bisectRungs finds the highest step in [lo, hi) that meets the SLO,
// assuming lo meets it and hi does not, probing O(log(hi-lo)) steps. A
// result of hi-1 means every probed step passed: the true answer may lie
// above the bracket.
func bisectRungs(lo, hi int, meets func(step int) bool) int {
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// slo is a workload's service-level objective for max_rps.
type slo struct {
	TailLimit time.Duration
}

// verdict is what a probe at one ladder rate saw.
type verdict struct {
	Rate    float64 // offered requests per second
	Tail    tail
	Failed  int
	Aborted bool // cut short by a response already past twice the limit
}

// met applies the SLO: the tail within the limit, no failed request, and
// no growing backlog. A backlog grows without bound exactly when requests
// arrive faster than the daemon completes them, so the offered rate is
// held against service, the sustained completion rate measured in the
// same run. Too few samples to pick a tail also misses.
func (s slo) met(v verdict, haveTail bool, service float64) bool {
	return haveTail && v.Tail.Value <= ms(s.TailLimit) && v.Failed == 0 && !v.Aborted && v.Rate <= service
}

// sustained is the completion rate of a back-to-back phase: requests
// completed per second from the first send to the last response.
func sustained(res []sent) float64 {
	var first, last time.Duration
	n := 0
	for i := range res {
		s := &res[i]
		if s.Done == 0 {
			continue
		}
		if n == 0 || s.Start < first {
			first = s.Start
		}
		last = max(last, s.Done)
		n++
	}
	if n == 0 || last <= first {
		return 0
	}
	return float64(n) / (last - first).Seconds()
}

func max0(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// now and since are the benchmark's only reads of the wall clock, which
// is what it measures.
func now() time.Time {
	//lint:ignore wallclock the benchmark measures wall-clock time
	return time.Now()
}

func since(t time.Time) time.Duration {
	//lint:ignore wallclock the benchmark measures wall-clock time
	return time.Since(t)
}
