package clock

import (
	"container/heap"
	"sync"
	"time"
)

// RealClock runs scheduled callbacks on a dedicated event-loop goroutine in
// wall-clock time. It preserves the serial execution model of SimClock: no
// two callbacks run concurrently, so protocol state needs no locking.
//
// Schedule/ScheduleAt/Cancel must be called from the loop goroutine (from
// inside a callback); external goroutines (e.g. a UDP reader) hand work to
// the loop with Post.
type RealClock struct {
	mu      sync.Mutex
	start   time.Time
	pending eventHeap
	posted  []func()
	seq     uint64
	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}
}

// NewReal starts a RealClock's event loop. Callers must Stop it when done.
func NewReal() *RealClock {
	r := &RealClock{
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go r.loop()
	return r
}

var _ Clock = (*RealClock)(nil)
var _ MonotonicClock = (*RealClock)(nil)
var _ RealTimeClock = (*RealClock)(nil)

// RealTime implements RealTimeClock: the loop runs in wall-clock time.
func (r *RealClock) RealTime() bool { return true }

// Now reports the current wall-clock time.
func (r *RealClock) Now() time.Time { return time.Now() }

// Monotonic reports time elapsed since the clock was started, measured on
// the host's monotonic timebase (time.Since uses the monotonic reading
// captured at start, so wall-clock steps do not affect it).
func (r *RealClock) Monotonic() time.Duration { return time.Since(r.start) }

// Schedule arranges for fn to run d from now on the loop goroutine.
func (r *RealClock) Schedule(d time.Duration, fn func()) *Event {
	return r.ScheduleAt(time.Now().Add(d), fn)
}

// ScheduleAt arranges for fn to run at wall-clock time t.
func (r *RealClock) ScheduleAt(t time.Time, fn func()) *Event {
	r.mu.Lock()
	r.seq++
	e := &Event{when: t, seq: r.seq, fn: fn}
	heap.Push(&r.pending, e)
	r.mu.Unlock()
	r.kick()
	return e
}

// Post enqueues fn to run as soon as possible on the loop goroutine. It is
// safe to call from any goroutine.
func (r *RealClock) Post(fn func()) {
	r.mu.Lock()
	r.posted = append(r.posted, fn)
	r.mu.Unlock()
	r.kick()
}

// Stop shuts down the event loop and waits for it to exit. Pending events
// are discarded.
func (r *RealClock) Stop() {
	select {
	case <-r.stop:
		// Already stopped.
	default:
		close(r.stop)
	}
	<-r.done
}

func (r *RealClock) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *RealClock) loop() {
	defer close(r.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// Drain posted work first so Post has priority over timers.
		r.mu.Lock()
		posted := r.posted
		r.posted = nil
		r.mu.Unlock()
		for _, fn := range posted {
			fn()
		}

		// Fire every due event.
		for {
			r.mu.Lock()
			var next *Event
			if len(r.pending) > 0 {
				next = r.pending[0]
				if next.cancel || !next.when.After(time.Now()) {
					heap.Pop(&r.pending)
				} else {
					next = nil
				}
			}
			r.mu.Unlock()
			if next == nil {
				break
			}
			if !next.cancel {
				next.fn()
			}
		}

		// Sleep until the next event, a post, or shutdown.
		r.mu.Lock()
		wait := time.Hour
		if len(r.posted) > 0 {
			wait = 0
		} else if len(r.pending) > 0 {
			wait = time.Until(r.pending[0].when)
			if wait < 0 {
				wait = 0
			}
		}
		r.mu.Unlock()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-r.stop:
			return
		case <-r.wake:
		case <-timer.C:
		}
	}
}
