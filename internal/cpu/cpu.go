// Package cpu models the replica server's processor as a single serially
// scheduled resource with two priority classes. The paper's evaluation
// depends on processor contention at the primary: client requests and
// backup-update transmissions share one CPU, so admitting too many objects
// (Figure 7) saturates it and client response time explodes, while
// admission control (Figure 6) keeps utilization bounded. Compressed
// scheduling (Figure 12) is "schedule as many updates to backup as the
// resources allow": an update pump that chains one transmission after
// another through the low-priority class of this resource.
//
// Costs are modelled in virtual time only. On a clock that runs in wall
// time (clock.IsRealTime) the resource keeps the same two classes and
// serial order but runs each item on the next executor turn, so the work
// takes exactly as long as it really takes; the declared costs are then
// the admission test's WCETs and nothing more.
package cpu

import (
	"time"

	"rtpb/internal/clock"
)

// Priority is the scheduling class of submitted work.
type Priority int

const (
	// High is used for client-facing work (request handling).
	High Priority = iota + 1
	// Low is used for background work (update transmissions).
	Low
)

// Resource is a non-preemptive two-level priority FIFO processor.
type Resource struct {
	clk  clock.Clock
	real bool
	high []work
	low  []work

	running  bool
	busy     time.Duration
	lastIdle time.Time
}

type work struct {
	cost time.Duration
	fn   func()
}

// New returns an idle resource driven by clk. The dispatch path follows
// the clock: modelled costs under virtual time, measured costs in real
// time.
func New(clk clock.Clock) *Resource {
	return &Resource{clk: clk, real: clock.IsRealTime(clk), lastIdle: clk.Now()}
}

// Submit enqueues work that occupies the processor for cost and then runs
// fn. fn runs on the clock executor, never inside Submit, after every
// item queued before it in its class; Low work also yields to any High
// work waiting when the processor frees up. Under virtual time the item holds the processor for cost and fn runs at
// its completion instant; zero-cost work still round-trips through the
// queue, preserving ordering. In real time cost is ignored: fn runs on
// the next executor turn once the processor is free, and the time it
// takes is what BusyTime counts.
func (r *Resource) Submit(p Priority, cost time.Duration, fn func()) {
	if cost < 0 {
		cost = 0
	}
	w := work{cost: cost, fn: fn}
	if p == High {
		r.high = append(r.high, w)
	} else {
		r.low = append(r.low, w)
	}
	if !r.running {
		r.dispatch()
	}
}

func (r *Resource) dispatch() {
	var w work
	switch {
	case len(r.high) > 0:
		w, r.high = r.high[0], r.high[1:]
	case len(r.low) > 0:
		w, r.low = r.low[0], r.low[1:]
	default:
		r.running = false
		r.lastIdle = r.clk.Now()
		return
	}
	r.running = true
	if r.real {
		// One item per posted turn, so due timers and inbound datagrams
		// interleave with a long backlog instead of waiting behind it.
		r.clk.Post(func() {
			start := time.Now()
			if w.fn != nil {
				w.fn()
			}
			r.busy += time.Since(start)
			r.dispatch()
		})
		return
	}
	r.busy += w.cost
	r.clk.Schedule(w.cost, func() {
		if w.fn != nil {
			w.fn()
		}
		r.dispatch()
	})
}

// RealTime reports whether the resource runs work at its measured cost
// (a real-time clock) rather than its modelled cost (virtual time).
func (r *Resource) RealTime() bool { return r.real }

// QueueLen reports the number of queued (not yet started) work items.
func (r *Resource) QueueLen() int { return len(r.high) + len(r.low) }

// Busy reports whether the processor is executing work right now.
func (r *Resource) Busy() bool { return r.running }

// BusyTime reports the cumulative processor time consumed: modelled cost
// of completed and in-progress work under virtual time, measured time
// spent in completed work in real time.
func (r *Resource) BusyTime() time.Duration { return r.busy }
