// Package quantile holds the one rank rule the repository reports
// percentiles by (forwarding-engine stage latencies, population
// operation latencies, trace flow durations). benchgate's median and
// bench/'s own harness are separate statistics and keep their own.
package quantile

import (
	"cmp"
	"math"
)

// NearestRank returns the q-quantile of samples sorted in ascending
// order by the nearest-rank rule: the smallest sample with at least a
// share q of all samples at or below it, sorted[⌈q·n⌉−1]. q ≤ 0 gives
// the minimum, q ≥ 1 the maximum, and no samples the zero value.
func NearestRank[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
