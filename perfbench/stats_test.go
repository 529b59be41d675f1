package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		want     float64
		q, value float64
		thin     bool
	}{
		// Enough samples: p99 of 1..1000 is 990, with exactly ten above.
		{n: 1000, want: 0.99, q: 0.99, value: 990},
		// Too few for p99: lowered to the highest percentile that still
		// has ten samples beyond it.
		{n: 100, want: 0.99, q: 0.90, value: 90},
		{n: 50, want: 0.99, q: 0.80, value: 40},
		// The median needs twenty samples; below that it is thin.
		{n: 20, want: 0.5, q: 0.5, value: 10},
		{n: 7, want: 0.99, q: 0.5, value: 4, thin: true},
	} {
		p := percentile(seq(tc.n), tc.want)
		if math.Abs(p.Q-tc.q) > 1e-9 || p.Value != tc.value || p.Thin != tc.thin || p.N != tc.n {
			t.Errorf("percentile(1..%d, %v) = %+v; want q=%v value=%v thin=%v n=%d", tc.n, tc.want, p, tc.q, tc.value, tc.thin, tc.n)
			continue
		}
		beyond := 0
		for _, v := range seq(tc.n) {
			if v > p.Value {
				beyond++
			}
		}
		if !tc.thin && beyond < minBeyond {
			t.Errorf("percentile(1..%d, %v) leaves %d samples beyond it", tc.n, tc.want, beyond)
		}
	}
	if p := percentile(nil, 0.5); !math.IsNaN(p.Value) || p.N != 0 {
		t.Errorf("percentile of no samples = %+v; want NaN over 0", p)
	}
}

func TestNeverAppliedIsStaleSinceRegistration(t *testing.T) {
	reg := time.Unix(1000, 0)
	now := reg.Add(300 * time.Millisecond)
	deltaB := 200 * time.Millisecond

	// The naive now − version on a zero version reads as centuries.
	age := certAge(false, time.Time{}, reg, now)
	if age != 300*time.Millisecond {
		t.Fatalf("never-applied age = %v; want 300ms since registration", age)
	}
	if !certStale(false, age, deltaB) {
		t.Error("a never-applied object must count as stale")
	}
	// Stale even while younger than δ_B: there is no image to be fresh.
	if young := certAge(false, time.Time{}, reg, reg.Add(time.Millisecond)); !certStale(false, young, deltaB) {
		t.Error("a never-applied object must count as stale whatever its age")
	}

	applied := certAge(true, now.Add(-150*time.Millisecond), reg, now)
	if applied != 150*time.Millisecond || certStale(true, applied, deltaB) {
		t.Errorf("applied image 150ms old: age %v stale %v; want 150ms, fresh", applied, certStale(true, applied, deltaB))
	}
	if old := certAge(true, now.Add(-250*time.Millisecond), reg, now); !certStale(true, old, deltaB) {
		t.Errorf("applied image %v old must be stale against δ_B %v", old, deltaB)
	}
}

func TestFailedOperationsCountAndMissEveryLimit(t *testing.T) {
	ms := int64(time.Millisecond)
	ops := []op{
		{due: 0, issued: 0, done: 1 * ms},
		{due: 1 * ms, issued: 1 * ms, done: 3 * ms},
		{due: 2 * ms, issued: 2 * ms, err: true, done: 2 * ms}, // errored
		{due: 3 * ms, issued: 3 * ms},                          // never finished
		{due: 50 * ms, issued: 50 * ms, done: 51 * ms},         // outside the window
	}
	s := summarise(ops, 0, 10*ms)
	if s.attempted != 4 || s.failed != 2 {
		t.Fatalf("attempted %d failed %d; want 4 and 2", s.attempted, s.failed)
	}
	if r := ratio(float64(s.failed), float64(s.attempted)); r != 0.5 {
		t.Errorf("failed ratio %v; want 0.5", r)
	}
	inf := 0
	for _, l := range s.lat {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if inf != 2 {
		t.Errorf("%d latencies are +Inf; want the 2 failed operations", inf)
	}
	// However generous the limit, only the two completed operations meet it.
	met := 0
	for _, l := range s.lat {
		if l <= float64(time.Hour) {
			met++
		}
	}
	if met != 2 {
		t.Errorf("%d operations meet a one-hour limit; want 2", met)
	}
	// With three of five failed, the median itself misses every limit.
	ops = append(ops[:4], op{due: 4 * ms, issued: 4 * ms, err: true})
	if p := percentile(summarise(ops, 0, 10*ms).lat, 0.5); !math.IsInf(p.Value, 1) {
		t.Errorf("median with most operations failed = %v; want +Inf", p.Value)
	}
}

func TestOpenLoopLatencyIsFromDueTime(t *testing.T) {
	ms := int64(time.Millisecond)
	// Due at 0, sent 5ms late by a stalled generator, answered 1ms after
	// that: the client waited 6ms.
	o := op{due: 0, issued: 5 * ms, done: 6 * ms}
	if got := o.latency(); got != float64(6*ms) {
		t.Errorf("latency %v; want 6ms from the due time", time.Duration(got))
	}
	s := summarise([]op{o}, 0, ms)
	if len(s.late) != 1 || s.late[0] != float64(5*ms) {
		t.Errorf("generator lateness %v; want 5ms", s.late)
	}
}

func TestSlicedPercentileIsMedianOfSlices(t *testing.T) {
	// Ten slices of 100 samples valued 1..100, except one stalled slice
	// whose samples are all huge.
	var ts []int64
	var vs []float64
	for k := 0; k < slices; k++ {
		for i := 1; i <= 100; i++ {
			ts = append(ts, int64(k*100+i-1))
			v := float64(i)
			if k == 3 {
				v = 1e9
			}
			vs = append(vs, v)
		}
	}
	p := slicedPercentile(ts, vs, 0, 1000, 0.5)
	if !p.Sliced || p.Value != 50 || p.N != 1000 {
		t.Errorf("sliced median = %+v; want 50 over 1000 samples, unmoved by the stalled slice", p)
	}
	// p99 needs 1000 samples per slice; with 100 it falls back to the
	// whole window, lowered to keep ten samples beyond it.
	if p := slicedPercentile(ts, vs, 0, 1000, 0.99); p.Sliced || p.Q != 0.99 || p.Value != 1e9 {
		t.Errorf("whole-window p99 = %+v; want unsliced p99 = 1e9", p)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	b := payload(7, 3, 41, 64)
	obj, idx, ok := decodePayload(b)
	if !ok || obj != 3 || idx != 41 || len(b) != 64 {
		t.Fatalf("decodePayload = %d %d %v (len %d); want 3 41 true (64)", obj, idx, ok, len(b))
	}
	if other := payload(7, 3, 42, 64); string(other[payloadHeader:]) == string(b[payloadHeader:]) {
		t.Error("filler of two writes to one object must differ")
	}
}

func TestParseRead(t *testing.T) {
	good := "OK AAAAAwAAACk= 2026-01-02T03:04:05.123456789Z age=1.5ms delta=200ms mode=normal theta=0s depth=1"
	if _, ver, err := parseRead(good); err != nil || ver.Nanosecond() != 123456789 {
		t.Errorf("parseRead(good) = %v, %v", ver, err)
	}
	if _, _, err := parseRead("ERR not found"); err != errNoImage {
		t.Errorf("not found = %v; want errNoImage", err)
	}
	for _, bad := range []string{
		"OK AAAA 2026-01-02T03:04:05Z delta=200ms mode=normal",
		"OK AAAA 2026-01-02T03:04:05Z age=soon delta=200ms",
		"ERR control command timed out",
	} {
		if _, _, err := parseRead(bad); err == nil || err == errNoImage {
			t.Errorf("parseRead(%q) accepted a bad reply", bad)
		}
	}
}
