package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is noise, so the percentile is lowered
// until it has that many behind it.
const minBeyond = 10

// pct is one reported percentile of a sample set.
type pct struct {
	// Want is the percentile asked for and Q the one reported: Q < Want
	// when the set is too small to hold minBeyond samples beyond Want.
	Want, Q float64
	// Value is the sample at Q; +Inf when that sample is a failed or
	// unfinished operation.
	Value float64
	// N is the sample count.
	N int
	// Thin marks a set too small to put minBeyond samples beyond even
	// its median; Value is then the median regardless.
	Thin bool
	// Sliced marks a median over the window's slices.
	Sliced bool
}

// percentile reports the nearest-rank percentile want (0 < want < 1) of
// samples, lowered so that at least minBeyond samples lie beyond it, and
// never below the median. Failed operations enter as +Inf and so miss
// every limit. samples is not modified.
func percentile(samples []float64, want float64) pct {
	n := len(samples)
	p := pct{Want: want, Q: want, N: n, Value: math.NaN()}
	if n == 0 {
		p.Thin = true
		return p
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if lim := 1 - float64(minBeyond)/float64(n); p.Q > lim {
		p.Q = lim
	}
	if p.Q < 0.5 {
		p.Q = 0.5
		p.Thin = n < 2*minBeyond
	}
	// Nearest rank: the smallest sample with at least Q·n samples at or
	// below it. The epsilon keeps 0.99·1000 from rounding up to 991.
	idx := int(math.Ceil(p.Q*float64(n)-1e-9)) - 1
	idx = max(0, min(idx, n-1))
	p.Value = s[idx]
	return p
}

// slices is how many equal parts of the window a sliced percentile is
// taken over.
const slices = 10

// slicedPercentile reports the median, over the window's slices, of each
// slice's percentile want of the samples (vs[i] taken at ts[i]): a
// stall confined to one second moves one slice, not the figure. Where a
// slice would be too small to hold minBeyond samples beyond want, the
// whole window is used instead.
func slicedPercentile(ts []int64, vs []float64, from, to int64, want float64) pct {
	var all []float64
	parts := make([][]float64, slices)
	width := (to - from) / slices
	for i, t := range ts {
		if t < from || t >= to || width <= 0 {
			continue
		}
		all = append(all, vs[i])
		k := min(int((t-from)/width), slices-1)
		parts[k] = append(parts[k], vs[i])
	}
	need := int(math.Ceil(float64(minBeyond) / (1 - want)))
	for _, p := range parts {
		if len(p) < need {
			return percentile(all, want)
		}
	}
	per := make([]float64, slices)
	for k, p := range parts {
		per[k] = percentile(p, want).Value
	}
	sort.Float64s(per)
	return pct{Want: want, Q: want, Value: (per[slices/2-1] + per[slices/2]) / 2, N: len(all), Sliced: true}
}

// op is one open-loop operation: when it was due, when the generator
// issued it, and when its reply arrived. Times are wall-clock
// nanoseconds; done == 0 means it never completed.
type op struct {
	due, issued, done int64
	err               bool
}

// latency is the operation's open-loop response time, measured from when
// it was due — not when the generator got round to issuing it — so a
// stall charges every request queued behind it. Errors and unfinished
// operations are +Inf: they miss every latency limit.
func (o op) latency() float64 {
	if o.err || o.done == 0 {
		return math.Inf(1)
	}
	return float64(o.done - o.due)
}

// failed reports whether the operation errored or did not finish.
func (o op) failed() bool { return o.err || o.done == 0 }

// opStats summarises operations due inside the window [from, to).
type opStats struct {
	attempted, failed int
	due               []int64
	lat               []float64 // ns, +Inf for failures
	late              []float64 // ns the generator issued behind schedule
}

func summarise(ops []op, from, to int64) opStats {
	var s opStats
	for _, o := range ops {
		if o.due < from || o.due >= to {
			continue
		}
		s.attempted++
		if o.failed() {
			s.failed++
		}
		s.due = append(s.due, o.due)
		s.lat = append(s.lat, o.latency())
		if o.issued != 0 {
			s.late = append(s.late, float64(o.issued-o.due))
		}
	}
	return s
}

// certAge is the staleness a backup certificate sample stands for. An
// object the backup never applied is as old as its registration: there
// is no version to difference, and the zero time would read as centuries.
func certAge(applied bool, version, registered, now time.Time) time.Duration {
	if !applied {
		return now.Sub(registered)
	}
	if age := now.Sub(version); age > 0 {
		return age
	}
	return 0
}

// certStale reports whether a certificate sample misses its bound δ_B.
// Never applied counts as stale whatever its age.
func certStale(applied bool, age, deltaB time.Duration) bool {
	return !applied || age > deltaB
}

// ratio is num/den, zero for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
