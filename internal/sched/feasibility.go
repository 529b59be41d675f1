package sched

import (
	"math"
	"sort"
	"time"
)

// RMUtilizationBound returns the Liu & Layland rate-monotonic utilization
// bound n(2^{1/n} - 1) for n tasks. For n <= 0 it returns 0. The bound
// converges to ln 2 ≈ 0.693 as n grows.
func RMUtilizationBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// FeasibleRM reports whether the task set passes the Liu & Layland
// sufficient utilization test for rate-monotonic scheduling:
// Σ e_i/p_i ≤ n(2^{1/n} - 1). A task set that fails this test may still be
// schedulable; use FeasibleRMExact for the exact (necessary and
// sufficient) test.
func FeasibleRM(ts TaskSet) bool {
	return RMBoundHolds(ts.Utilization(), len(ts))
}

// RMBoundHolds is FeasibleRM for a task set known only by its total
// utilization u and task count n, for callers that keep a running total
// instead of the set.
func RMBoundHolds(u float64, n int) bool {
	return n == 0 || u <= RMUtilizationBound(n)+1e-12
}

// EDFBoundHolds is FeasibleEDF for implicit-deadline tasks known only by
// their total utilization u.
func EDFBoundHolds(u float64) bool { return u <= 1+1e-12 }

// FeasibleRMExact reports whether the task set is schedulable under
// preemptive rate-monotonic priorities, using response-time analysis
// (Joseph & Pandya): R_i = e_i + Σ_{j∈hp(i)} ceil(R_i/p_j)·e_j iterated to
// a fixed point, schedulable iff R_i ≤ D_i for every task. This is exact
// for synchronous release (offsets are ignored: the critical instant is
// simultaneous release).
func FeasibleRMExact(ts TaskSet) bool {
	if len(ts) <= 1 {
		return len(ts) == 0 || ts[0].WCET <= ts[0].Deadline()
	}
	sorted := ts.Clone()
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Period < sorted[j].Period })
	for i, t := range sorted {
		r := t.WCET
		for {
			interference := time.Duration(0)
			for j := 0; j < i; j++ {
				hp := sorted[j]
				n := int64(math.Ceil(float64(r) / float64(hp.Period)))
				interference += time.Duration(n) * hp.WCET
			}
			next := t.WCET + interference
			if next > t.Deadline() {
				return false
			}
			if next == r {
				break
			}
			r = next
		}
	}
	return true
}

// FeasibleEDF reports whether the task set is schedulable under preemptive
// earliest-deadline-first scheduling. For implicit deadlines this is the
// exact test U ≤ 1; for constrained deadlines it is the (sufficient)
// density test Σ e_i/min(D_i, p_i) ≤ 1.
func FeasibleEDF(ts TaskSet) bool {
	d := 0.0
	for _, t := range ts {
		den := t.Deadline()
		if t.Period < den {
			den = t.Period
		}
		if den <= 0 {
			return false
		}
		d += float64(t.WCET) / float64(den)
	}
	return EDFBoundHolds(d)
}

// SpecializeSr transforms the task set's periods into a harmonic set using
// Han & Lin's single-number specialization, the basis of the pinwheel
// scheduler S_r used by the paper's Theorem 3. Each period c_i is replaced
// by c'_i = b·2^⌊lg(c_i/b)⌋ ≤ c_i for the base b ∈ (c_min/2, c_min] that
// minimizes the resulting density Σ e_i/c'_i. The specialized set is
// harmonic (every period divides every longer one), so a rate-monotonic
// schedule of it is cyclic and each task's completions are exactly
// periodic in steady state: phase variance zero.
//
// It returns the specialized set and whether its density is ≤ 1 (i.e.
// whether S_r can schedule it, meeting every original distance constraint).
func SpecializeSr(ts TaskSet) (TaskSet, bool) {
	if len(ts) == 0 {
		return nil, true
	}
	cMin := ts[0].Period
	for _, t := range ts[1:] {
		if t.Period < cMin {
			cMin = t.Period
		}
	}
	// Candidate bases: every value c_i/2^k that lands in (c_min/2, c_min].
	// Density is a step function of b with breakpoints exactly there, and
	// bases b and b/2 yield identical specializations, so this candidate
	// set contains an optimum.
	candidates := []time.Duration{cMin}
	for _, t := range ts {
		b := t.Period
		for b > cMin {
			b /= 2
		}
		if b > cMin/2 && b > 0 {
			candidates = append(candidates, b)
		}
	}
	best := TaskSet(nil)
	bestDensity := math.Inf(1)
	for _, b := range candidates {
		spec := ts.Clone()
		density := 0.0
		ok := true
		for i := range spec {
			p := specializePeriod(spec[i].Period, b)
			if p < spec[i].WCET {
				ok = false
				break
			}
			spec[i].Period = p
			if spec[i].RelativeDeadline > p {
				spec[i].RelativeDeadline = p
			}
			density += float64(spec[i].WCET) / float64(p)
		}
		if ok && density < bestDensity {
			best = spec
			bestDensity = density
		}
	}
	if best == nil {
		return ts.Clone(), false
	}
	return best, bestDensity <= 1+1e-12
}

// SpecializeSa is the simpler member of Han & Lin's scheduler family: it
// specializes with the base fixed at the smallest distance, c'_i =
// c_min·2^⌊lg(c_i/c_min)⌋, without the base search S_r performs. The
// result is harmonic (so completions are exactly periodic, like S_r) but
// its density can be up to 2× worse than S_r's, which is why the paper's
// Theorem 3 condition is stated for S_r.
func SpecializeSa(ts TaskSet) (TaskSet, bool) {
	if len(ts) == 0 {
		return nil, true
	}
	cMin := ts[0].Period
	for _, t := range ts[1:] {
		if t.Period < cMin {
			cMin = t.Period
		}
	}
	spec := ts.Clone()
	density := 0.0
	for i := range spec {
		p := specializePeriod(spec[i].Period, cMin)
		if p < spec[i].WCET {
			return spec, false
		}
		spec[i].Period = p
		if spec[i].RelativeDeadline > p {
			spec[i].RelativeDeadline = p
		}
		density += float64(spec[i].WCET) / float64(p)
	}
	return spec, density <= 1+1e-12
}

// specializePeriod returns b·2^⌊lg(c/b)⌋, the largest power-of-two multiple
// of b that does not exceed c.
func specializePeriod(c, b time.Duration) time.Duration {
	if c < b {
		return c
	}
	p := b
	for p*2 <= c {
		p *= 2
	}
	return p
}

// FeasibleDCS reports whether the task set satisfies the sufficient
// condition of Han & Lin quoted by the paper's Theorem 3:
// Σ e_i/p_i ≤ n(2^{1/n} - 1) guarantees scheduler S_r can run each task at
// an exact period no larger than p_i, making every phase variance zero.
func FeasibleDCS(ts TaskSet) bool {
	return RMBoundHolds(ts.Utilization(), len(ts))
}

// FeasibleDCSExact reports whether S_r specialization actually succeeds
// (density of the specialized set ≤ 1). FeasibleDCS implies
// FeasibleDCSExact but not conversely.
func FeasibleDCSExact(ts TaskSet) bool {
	_, ok := SpecializeSr(ts)
	return ok
}
