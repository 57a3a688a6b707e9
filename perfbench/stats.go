package main

import (
	"math"
	"sort"
	"time"
)

// failedSample is the latency a failed operation contributes to every
// percentile: it misses any latency limit.
var failedSample = math.Inf(1)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of xs (failures as
// +Inf) and how many samples lie beyond it. ok is false when fewer than
// minBeyond samples lie beyond the rank, so the percentile is not
// resolved by the sample. xs is not modified.
func percentile(xs []float64, p float64, minBeyond int) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, minBeyond <= 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	beyond = n - k
	return s[k-1], beyond, beyond >= minBeyond
}

// median is the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer the workload did not
// exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
