package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// mean returns the average of xs, or 0 for no values.
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

// ratio returns x/y, or 0 when y is 0 (a layer the run did not reach).
func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which
// is how run-to-run spreads of this benchmark are judged. With fewer than
// two values both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100),
// or 0 for no values.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	// The epsilon keeps p·n/100 from rounding up past an exact rank.
	k := int(math.Ceil(p*float64(len(s))/100-1e-9)) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// tailLadder lists the percentiles a tail latency may be reported at,
// each with the share of samples beyond it in parts per 10,000.
var tailLadder = []struct {
	p      float64
	beyond int
}{{50, 5000}, {90, 1000}, {95, 500}, {99, 100}, {99.9, 10}, {99.99, 1}}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it; ok is false when even the median has
// fewer than ten.
func tailPercentile(n int) (p float64, ok bool) {
	for _, t := range tailLadder {
		if n*t.beyond >= 10*10000 {
			p, ok = t.p, true
		}
	}
	return p, ok
}

// span is one timed call recorded by a traced run. Spans of one request
// share Request; Parent is 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// SelfNs is filled in when the trace is written: the span's duration
	// minus the union of its children's intervals.
	SelfNs int64 `json:"self_ns"`
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the union of its children's intervals, clipped to the
// span. Children may overlap one another, as requests of two clients do
// inside one round, so their durations are merged, not summed.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, p := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[p.ID] {
			lo, hi := max(spans[c].StartNs, p.StartNs), min(spans[c].EndNs, p.EndNs)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end int64 = 0, math.MinInt64
		for _, v := range ivs {
			if v.lo > end {
				covered += v.hi - v.lo
				end = v.hi
			} else if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		out[i] = p.EndNs - p.StartNs - covered
	}
	return out
}
