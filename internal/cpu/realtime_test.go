package cpu

import (
	"testing"
	"time"

	"rtpb/internal/clock"
)

// onExec runs fn on clk's executor and waits for it.
func onExec(t *testing.T, clk clock.Clock, fn func()) {
	t.Helper()
	done := make(chan struct{})
	clk.Post(func() { fn(); close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("executor did not run a posted call within 5s")
	}
}

// newRealResource returns a resource on a fresh RealClock.
func newRealResource(t *testing.T) (*clock.RealClock, *Resource) {
	t.Helper()
	clk := clock.NewReal()
	t.Cleanup(clk.Stop)
	var r *Resource
	onExec(t, clk, func() { r = New(clk) })
	if !r.RealTime() {
		t.Fatal("resource on a RealClock is not real-time")
	}
	return clk, r
}

// waitIdle polls until the resource has no queued or running work.
func waitIdle(t *testing.T, clk clock.Clock, r *Resource) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var idle bool
		onExec(t, clk, func() { idle = r.QueueLen() == 0 && !r.Busy() })
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("resource did not drain within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// checkOrder compares the executor-owned order against want.
func checkOrder(t *testing.T, clk clock.Clock, order *[]string, want []string) {
	t.Helper()
	var got []string
	onExec(t, clk, func() { got = append(got, *order...) })
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestRealTimeClocks(t *testing.T) {
	rc := clock.NewReal()
	defer rc.Stop()
	for _, tc := range []struct {
		name string
		clk  clock.Clock
		want bool
	}{
		{"SimClock", clock.NewSim(), false},
		{"SkewedClock(SimClock)", clock.NewSkewed(clock.NewSim()), false},
		{"RealClock", rc, true},
		{"SkewedClock(RealClock)", clock.NewSkewed(rc), true},
	} {
		if got := clock.IsRealTime(tc.clk); got != tc.want {
			t.Errorf("IsRealTime(%s) = %v, want %v", tc.name, got, tc.want)
		}
		if got := New(tc.clk).RealTime(); got != tc.want {
			t.Errorf("New(%s).RealTime() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRealTimePriorityThenFIFO(t *testing.T) {
	clk, r := newRealResource(t)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	onExec(t, clk, func() {
		// The first item occupies the processor; everything after it
		// queues and runs High first, FIFO within each class.
		r.Submit(Low, 0, note("busy"))
		r.Submit(Low, 0, note("low1"))
		r.Submit(High, 0, note("high1"))
		r.Submit(Low, 0, note("low2"))
		r.Submit(High, 0, note("high2"))
	})
	waitIdle(t, clk, r)
	want := []string{"busy", "high1", "high2", "low1", "low2"}
	checkOrder(t, clk, &order, want)
}

func TestRealTimeNeverRunsInsideSubmit(t *testing.T) {
	clk, r := newRealResource(t)
	inSubmit, ran, ranInside := false, 0, false
	onExec(t, clk, func() {
		for _, p := range []Priority{High, Low} {
			inSubmit = true
			r.Submit(p, 0, func() {
				ran++
				ranInside = ranInside || inSubmit
			})
			inSubmit = false
		}
		if ran != 0 {
			t.Errorf("%d items ran before the submitting callback returned", ran)
		}
	})
	waitIdle(t, clk, r)
	var n int
	var inside bool
	onExec(t, clk, func() { n, inside = ran, ranInside })
	if n != 2 || inside {
		t.Fatalf("ran = %d, ran inside Submit = %v", n, inside)
	}
}

func TestRealTimeSubmitFromWorkQueuesBehind(t *testing.T) {
	clk, r := newRealResource(t)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	onExec(t, clk, func() {
		r.Submit(Low, 0, func() {
			order = append(order, "first")
			r.Submit(Low, 0, note("chained"))
		})
		r.Submit(Low, 0, note("waiting1"))
		r.Submit(Low, 0, note("waiting2"))
	})
	waitIdle(t, clk, r)
	want := []string{"first", "waiting1", "waiting2", "chained"}
	checkOrder(t, clk, &order, want)
}

func TestRealTimeBusyTimeIsMeasured(t *testing.T) {
	clk, r := newRealResource(t)
	const spin = 5 * time.Millisecond
	burn := func() {
		for start := time.Now(); time.Since(start) < spin; {
		}
	}
	start := time.Now()
	onExec(t, clk, func() {
		// A declared cost of an hour must not be slept, and a declared
		// cost of zero must not hide the work done.
		r.Submit(High, time.Hour, burn)
		r.Submit(Low, 0, burn)
	})
	waitIdle(t, clk, r)
	elapsed := time.Since(start)
	var busy time.Duration
	onExec(t, clk, func() { busy = r.BusyTime() })
	if busy < 2*spin || busy > elapsed {
		t.Fatalf("BusyTime = %v, want between the %v spent in fn and the %v elapsed", busy, 2*spin, elapsed)
	}
}

func TestRealTimeDrainsToIdle(t *testing.T) {
	clk, r := newRealResource(t)
	const n = 200
	ran := 0
	onExec(t, clk, func() {
		for i := 0; i < n; i++ {
			p := Low
			if i%3 == 0 {
				p = High
			}
			r.Submit(p, time.Millisecond, func() { ran++ })
		}
		if r.QueueLen() != n-1 || !r.Busy() {
			t.Errorf("after submitting: QueueLen = %d, Busy = %v; want %d, true", r.QueueLen(), r.Busy(), n-1)
		}
	})
	waitIdle(t, clk, r)
	var done, queued int
	var busy bool
	onExec(t, clk, func() { done, queued, busy = ran, r.QueueLen(), r.Busy() })
	if done != n || queued != 0 || busy {
		t.Fatalf("after drain: ran = %d, QueueLen = %d, Busy = %v", done, queued, busy)
	}
}
