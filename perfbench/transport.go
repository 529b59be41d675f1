package main

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// now is the benchmark's one timebase: wall-clock nanoseconds, directly
// comparable with the version stamps the replicas put on writes.
func now() int64 { return time.Now().UnixNano() }

// window is the measured interval [from, to). It is set once, before the
// generator starts, and read from every goroutine.
type window struct{ from, to atomic.Int64 }

func (w *window) set(from, to int64) { w.from.Store(from); w.to.Store(to) }

func (w *window) in(t int64) bool { return t >= w.from.Load() && t < w.to.Load() }

func (w *window) seconds() float64 {
	return float64(w.to.Load()-w.from.Load()) / float64(time.Second)
}

// hdrLen is the header the benchmark's transports put in front of every
// datagram and strip again on receipt: the sender's datagram number and
// the instant it was handed to the socket. It is how the end-to-end
// transit of an update is measured without hooks inside the replicas.
const hdrLen = 16

// maxCapture bounds the datagrams kept for the wire-decode replay.
const maxCapture = 4096

// sendRec is one datagram the traced primary handed to its socket.
type sendRec struct {
	seq            uint64
	start, end     int64
	bytes, updates int
	dropped        bool
}

// recvRec is one datagram the traced backup received: when the socket
// reader posted it, when the executor ran the post, and the receive
// callback's span (demux, wire decode, core apply, WAL enqueue).
type recvRec struct {
	seq                 uint64
	enq, run, cb, cbEnd int64
}

// benchTransport wraps a replica's xkernel.Transport. It stamps and
// strips the header, drops a seeded share of outbound datagrams (the
// benchmark's loss model), and on the receiving side records per-update
// transit. Sender and receiver state is owned by the replica's clock
// executor, which runs both Send and the receive callback.
type benchTransport struct {
	inner xkernel.Transport
	win   *window
	tc    *tracedClock // nil on the untraced run
	loss  float64
	rng   *rand.Rand
	buf   []byte

	seq     uint64
	dropped int // in the window
	sends   []sendRec
	// captured holds a bounded sample of update datagrams for the
	// offline wire-decode replay.
	captured [][]byte
	// lastSeq is the datagram most recently sent; OnSend fires right
	// after the push, so it names the datagram that carried the update.
	lastSeq uint64

	// transit holds, per update delivered in the window, the ns from
	// the primary's send to the end of the backup's receive callback;
	// transitAt the send instant.
	transit   []float64
	transitAt []int64
	applied   int // updates delivered in the window
	recvs     []recvRec
	// curSeq is the datagram whose receive callback is running.
	curSeq uint64
}

func newBenchTransport(inner xkernel.Transport, win *window, tc *tracedClock, loss float64, seed int64) *benchTransport {
	return &benchTransport{inner: inner, win: win, tc: tc, loss: loss, rng: rand.New(rand.NewSource(seed))}
}

// Send implements xkernel.Transport.
func (t *benchTransport) Send(to string, payload []byte) error {
	t.seq++
	t.lastSeq = t.seq
	start := now()
	drop := t.loss > 0 && t.rng.Float64() < t.loss
	if drop && t.win.in(start) {
		t.dropped++
	}
	var err error
	if !drop {
		t.buf = binary.BigEndian.AppendUint64(t.buf[:0], t.seq)
		t.buf = binary.BigEndian.AppendUint64(t.buf, uint64(start))
		t.buf = append(t.buf, payload...)
		err = t.inner.Send(to, t.buf)
	}
	if t.tc != nil && t.win.in(start) {
		n := updatesIn(payload)
		t.sends = append(t.sends, sendRec{seq: t.seq, start: start, end: now(),
			bytes: len(payload), updates: n, dropped: drop})
		if n > 0 && len(t.captured) < maxCapture {
			t.captured = append(t.captured, append([]byte(nil), payload[portHeader:]...))
		}
	}
	return err
}

// sendsBySeq indexes the traced datagram records by sequence number.
func (t *benchTransport) sendsBySeq() map[uint64]sendRec {
	m := make(map[uint64]sendRec, len(t.sends))
	for _, s := range t.sends {
		m[s.seq] = s
	}
	return m
}

// SetReceiver implements xkernel.Transport.
func (t *benchTransport) SetReceiver(fn func(from string, payload []byte)) {
	t.inner.SetReceiver(func(from string, b []byte) {
		if len(b) < hdrLen {
			return
		}
		seq := binary.BigEndian.Uint64(b)
		sent := int64(binary.BigEndian.Uint64(b[8:]))
		b = b[hdrLen:]
		t.curSeq = seq
		cb := now()
		fn(from, b)
		end := now()
		if !t.win.in(sent) {
			return
		}
		if n := updatesIn(b); n > 0 {
			t.applied += n
			for i := 0; i < n; i++ {
				t.transit = append(t.transit, float64(end-sent))
				t.transitAt = append(t.transitAt, sent)
			}
		}
		if t.tc != nil {
			t.recvs = append(t.recvs, recvRec{seq: seq, enq: t.tc.curEnq, run: t.tc.curRun, cb: cb, cbEnd: end})
		}
	})
}

// LocalAddr implements xkernel.Transport.
func (t *benchTransport) LocalAddr() string { return t.inner.LocalAddr() }

// Close implements xkernel.Transport.
func (t *benchTransport) Close() error { return t.inner.Close() }

// portHeader is the x-kernel port protocol's header (source and
// destination port) in front of every RTPB message on the wire.
const portHeader = 4

// updatesIn counts the replicated updates a datagram carries: one for a
// bare update, the message count for a frame (the primary frames only
// updates), none for control traffic.
func updatesIn(b []byte) int {
	if len(b) < portHeader+4 {
		return 0
	}
	b = b[portHeader:]
	switch wire.Kind(b[3]) {
	case wire.KindUpdate:
		return 1
	case wire.KindFrame:
		if len(b) >= 6 {
			return int(binary.BigEndian.Uint16(b[4:]))
		}
	}
	return 0
}

// tracedClock wraps a replica's RealClock for the traced run. It measures
// how long posted work waited for the executor, how late timers fired,
// and how long the executor was busy inside callbacks. Its fields are
// owned by the executor.
type tracedClock struct {
	*clock.RealClock
	win *window

	busy      int64
	postWait  []float64
	timerLate []float64
	// curEnq and curRun describe the post being run: when it was
	// enqueued and when the executor picked it up.
	curEnq, curRun int64
}

var _ clock.MonotonicClock = (*tracedClock)(nil)

// Post implements clock.Clock.
func (c *tracedClock) Post(fn func()) {
	enq := now()
	c.RealClock.Post(func() {
		run := now()
		c.curEnq, c.curRun = enq, run
		fn()
		c.account(run, now())
		if c.win.in(enq) {
			c.postWait = append(c.postWait, float64(run-enq))
		}
	})
}

// Schedule implements clock.Clock.
func (c *tracedClock) Schedule(d time.Duration, fn func()) *clock.Event {
	return c.ScheduleAt(time.Now().Add(d), fn)
}

// ScheduleAt implements clock.Clock.
func (c *tracedClock) ScheduleAt(t time.Time, fn func()) *clock.Event {
	due := t.UnixNano()
	return c.RealClock.ScheduleAt(t, func() {
		run := now()
		fn()
		c.account(run, now())
		if c.win.in(run) {
			c.timerLate = append(c.timerLate, float64(max(0, run-due)))
		}
	})
}

func (c *tracedClock) account(start, end int64) {
	if c.win.in(start) {
		c.busy += end - start
	}
}
