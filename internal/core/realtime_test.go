package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/xkernel"
)

// These tests run replicas the way rtpbd does: each on its own RealClock
// and loopback UDP socket. Under a real-time clock the CPU resource runs
// work at its measured cost, so they check that every self-chaining CPU
// submission stays paced and that the default cost model no longer turns
// into real delay.

// onReal runs fn on clk's executor and waits for it.
func onReal(t *testing.T, clk clock.Clock, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	clk.Post(func() { done <- fn() })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("executor did not run a posted call within 10s")
	}
}

// realNode is one replica's clock, socket, and protocol stack.
type realNode struct {
	clk  *clock.RealClock
	tr   *netsim.UDPTransport
	port *xkernel.PortProtocol
	// sent counts the datagrams the stack hands to the socket.
	sent atomic.Int64
}

// countingTransport counts the datagrams sent through a UDP transport.
type countingTransport struct {
	*netsim.UDPTransport
	sent *atomic.Int64
}

func (c countingTransport) Send(to string, payload []byte) error {
	c.sent.Add(1)
	return c.UDPTransport.Send(to, payload)
}

// addr is the node's RTPB endpoint behind its UDP socket.
func (n *realNode) addr() xkernel.Addr {
	return xkernel.Addr(fmt.Sprintf("%s:%d", n.tr.LocalAddr(), RTPBPort))
}

// newRealNode starts a RealClock and a loopback socket; cleanup stops
// both after the replica on it.
func newRealNode(t *testing.T) *realNode {
	t.Helper()
	n := &realNode{clk: clock.NewReal()}
	t.Cleanup(n.clk.Stop)
	tr, err := netsim.NewUDP(n.clk, "127.0.0.1:0")
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	n.tr = tr
	t.Cleanup(func() { _ = tr.Close() })
	onReal(t, n.clk, func() error {
		g, err := xkernel.BuildGraph([]xkernel.Spec{
			{Name: "uport", Below: "driver", Build: xkernel.PortFactory()},
			{Name: "driver", Build: xkernel.DriverFactory(countingTransport{tr, &n.sent})},
		})
		if err != nil {
			return err
		}
		p, _ := g.Protocol("uport")
		n.port = p.(*xkernel.PortProtocol)
		return nil
	})
	return n
}

// start builds a replica on the node; cleanup stops it first.
func (n *realNode) start(t *testing.T, cfg Config, role Role) *Replica {
	t.Helper()
	cfg.Clock, cfg.Port = n.clk, n.port
	if cfg.Ell == 0 {
		cfg.Ell = 5 * time.Millisecond
	}
	var r *Replica
	onReal(t, n.clk, func() (err error) {
		r, err = NewReplica(cfg, role)
		return err
	})
	t.Cleanup(func() { onReal(t, n.clk, func() error { r.Stop(); return nil }) })
	return r
}

// newRealPair starts a backup and a primary pointed at each other.
func newRealPair(t *testing.T, mutateP func(*Config)) (pn, bn *realNode, p *Primary, b *Backup) {
	t.Helper()
	pn, bn = newRealNode(t), newRealNode(t)
	b = bn.start(t, Config{Peer: pn.addr()}, RoleBackup)
	pcfg := Config{Peers: []xkernel.Addr{bn.addr()}}
	if mutateP != nil {
		mutateP(&pcfg)
	}
	p = pn.start(t, pcfg, RolePrimary)
	return pn, bn, p, b
}

// registerReal registers specs on the primary, fails the test on any
// rejection, and waits until the backup holds them all.
func registerReal(t *testing.T, pn, bn *realNode, p *Primary, b *Backup, specs []ObjectSpec) []Decision {
	t.Helper()
	ds := make([]Decision, len(specs))
	onReal(t, pn.clk, func() error {
		for i, s := range specs {
			if ds[i] = p.Register(s); !ds[i].Accepted {
				return fmt.Errorf("%s rejected: %s", s.Name, ds[i].Reason)
			}
		}
		return nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		var have int
		onReal(t, bn.clk, func() error { have = len(b.Specs()); return nil })
		if have == len(specs) {
			return ds
		}
		if time.Now().After(deadline) {
			t.Fatalf("backup holds %d of %d specs after 5s", have, len(specs))
		}
		time.Sleep(time.Millisecond)
	}
}

// realSpecs returns n 64-byte objects written every period with
// δ_P = period+10ms and δ_B = δ_P+150ms, the spec shape of the wall-clock
// benchmark's admission workload.
func realSpecs(n int, period time.Duration) []ObjectSpec {
	specs := make([]ObjectSpec, n)
	for i := range specs {
		deltaP := period + 10*time.Millisecond
		specs[i] = ObjectSpec{
			Name:         fmt.Sprintf("o%02d", i),
			Size:         64,
			UpdatePeriod: period,
			Constraint:   temporal.ExternalConstraint{DeltaP: deltaP, DeltaB: deltaP + 150*time.Millisecond},
		}
	}
	return specs
}

// TestRealTimeDefaultCostsHoldDeltaB is the regression test for the
// modelled CPU costs becoming real timer delays: with the default cost
// model, an admitted set written at its declared periods must keep every
// client write fast and every backup image within δ_B.
func TestRealTimeDefaultCostsHoldDeltaB(t *testing.T) {
	const (
		objects  = 40
		period   = 20 * time.Millisecond
		run      = time.Second
		warmup   = 200 * time.Millisecond
		writeMax = 50 * time.Millisecond
	)
	pn, bn, p, b := newRealPair(t, nil)
	specs := realSpecs(objects, period)
	registerReal(t, pn, bn, p, b, specs)

	var (
		mu        sync.Mutex
		issued    int
		completed int
		slowest   time.Duration
		writeErr  error
	)
	start := time.Now()
	var violations []string
	var sampler *clock.Periodic
	onReal(t, bn.clk, func() error {
		sampler = clock.NewPeriodic(bn.clk, 0, 5*time.Millisecond, func() {
			if time.Since(start) < warmup || len(violations) >= 5 {
				return
			}
			for _, s := range specs {
				c, ok := b.Certificate(s.Name)
				switch {
				case !ok:
					violations = append(violations, fmt.Sprintf("%s: no image at %v", s.Name, time.Since(start)))
				case c.Age >= c.Bound:
					violations = append(violations, fmt.Sprintf("%s: age %v ≥ δ_B %v at %v", s.Name, c.Age, c.Bound, time.Since(start)))
				}
			}
		})
		return nil
	})
	tick := time.NewTicker(period)
	for i := 0; time.Since(start) < run; i++ {
		<-tick.C
		payload := []byte(fmt.Sprintf("write %04d", i))
		call := time.Now()
		mu.Lock()
		issued += objects
		mu.Unlock()
		pn.clk.Post(func() {
			for _, s := range specs {
				p.ClientWrite(s.Name, payload, func(_ time.Duration, err error) {
					mu.Lock()
					defer mu.Unlock()
					completed++
					slowest = max(slowest, time.Since(call))
					if err != nil && writeErr == nil {
						writeErr = err
					}
				})
			}
		})
	}
	tick.Stop()
	onReal(t, bn.clk, func() error { sampler.Stop(); return nil })

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		done := completed == issued
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if completed != issued {
		t.Fatalf("%d of %d writes completed", completed, issued)
	}
	if writeErr != nil {
		t.Fatalf("write failed: %v", writeErr)
	}
	if slowest > writeMax {
		t.Errorf("slowest write completed %v after its call, want ≤ %v", slowest, writeMax)
	}
	for _, v := range violations {
		t.Errorf("backup certificate: %s", v)
	}
}

// countSends installs an OnSend hook on the primary that records every
// update transmission's wall-clock time.
func countSends(t *testing.T, pn *realNode, p *Primary) func() []time.Time {
	t.Helper()
	var mu sync.Mutex
	var sends []time.Time
	onReal(t, pn.clk, func() error {
		p.OnSend = func(uint32, string, uint64, time.Time) {
			mu.Lock()
			sends = append(sends, time.Now())
			mu.Unlock()
		}
		return nil
	})
	return func() []time.Time {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Time(nil), sends...)
	}
}

// TestRealTimeCompressedPumpPaced checks that the compressed-scheduling
// pump, which chains one transmission after another, is paced at the
// declared send cost when the CPU charges nothing.
func TestRealTimeCompressedPumpPaced(t *testing.T) {
	const run = 300 * time.Millisecond
	pn, bn, p, b := newRealPair(t, func(c *Config) { c.Scheduling = ScheduleCompressed })
	specs := realSpecs(4, 40*time.Millisecond)
	registerReal(t, pn, bn, p, b, specs)
	sends := countSends(t, pn, p)
	onReal(t, pn.clk, func() error {
		for _, s := range specs {
			p.ClientWrite(s.Name, []byte("x"), nil)
		}
		return nil
	})
	time.Sleep(run + 100*time.Millisecond)

	all := sends()
	if len(all) == 0 {
		t.Fatal("compressed pump sent nothing")
	}
	n := 0
	for _, at := range all {
		if at.Sub(all[0]) <= run {
			n++
		}
	}
	sendCost := DefaultCosts().sendCost(1)
	limit := int((run+sendCost-1)/sendCost) + 1
	if n > limit {
		t.Fatalf("pump sent %d updates in %v, want ≤ ⌈run/sendCost⌉+1 = %d", n, run, limit)
	}
	// Each step also waits out a timer's oversleep (about 1 ms on a small
	// VM), so the pump runs well below the limit. The floor only shows
	// that it keeps chaining: the four writes alone would be sent once.
	if n < 50 {
		t.Fatalf("pump sent only %d updates in %v: not pumping", n, run)
	}
}

// TestRealTimeDrainBounded checks the normal-mode send-queue drain: the
// updates sent in a window are bounded by the update tasks' releases,
// not by how fast the executor can chain drain steps.
func TestRealTimeDrainBounded(t *testing.T) {
	const run = 300 * time.Millisecond
	pn, bn, p, b := newRealPair(t, nil)
	specs := realSpecs(16, 20*time.Millisecond)
	ds := registerReal(t, pn, bn, p, b, specs)
	sends := countSends(t, pn, p)
	start := time.Now()
	onReal(t, pn.clk, func() error {
		for _, s := range specs {
			p.ClientWrite(s.Name, []byte("x"), nil)
		}
		return nil
	})
	time.Sleep(run)
	n := len(sends())
	elapsed := time.Since(start)

	limit := 0
	for _, d := range ds {
		limit += int(elapsed/d.UpdatePeriod) + 2
	}
	if n == 0 || n > limit {
		t.Fatalf("%d updates sent in %v, want 1..%d (one per update-task release)", n, elapsed, limit)
	}
}

// TestRealTimeCriticalRetransmitBounded checks that a critical write to
// a backup that stopped acking is retransmitted only on its timer and
// fails after CriticalMaxRetries transmissions.
func TestRealTimeCriticalRetransmitBounded(t *testing.T) {
	const retries = 3
	pn, bn, p, b := newRealPair(t, func(c *Config) {
		c.CriticalMaxRetries = retries
		c.CriticalAckTimeout = 20 * time.Millisecond
		c.RetryCeiling = 20 * time.Millisecond
	})
	s := realSpecs(1, 40*time.Millisecond)[0]
	s.Critical = true
	registerReal(t, pn, bn, p, b, []ObjectSpec{s})
	// Wait for the join exchange so the backup counts toward the write's
	// quorum, then silence it without telling the primary.
	deadline := time.Now().Add(5 * time.Second)
	for synced := 0; synced == 0; {
		onReal(t, pn.clk, func() error { synced = p.SyncedPeers(); return nil })
		if time.Now().After(deadline) {
			t.Fatal("backup never completed its join")
		}
		time.Sleep(time.Millisecond)
	}
	onReal(t, bn.clk, func() error { b.Stop(); return nil })

	var mu sync.Mutex
	var critical int
	result := make(chan error, 1)
	onReal(t, pn.clk, func() error {
		p.OnSend = func(uint32, string, uint64, time.Time) {
			mu.Lock()
			defer mu.Unlock()
			critical++
		}
		p.ClientWrite(s.Name, []byte("x"), func(_ time.Duration, err error) { result <- err })
		return nil
	})
	start := time.Now()
	select {
	case err := <-result:
		if !errors.Is(err, ErrAckTimeout) {
			t.Fatalf("critical write err = %v, want ErrAckTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("critical write never finished")
	}
	elapsed := time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	// The update task keeps releasing the object at its admitted period
	// too; everything beyond those releases is the critical path's.
	releases := int(elapsed/(20*time.Millisecond)) + 2
	if critical > retries+releases {
		t.Fatalf("%d transmissions in %v, want ≤ %d critical + %d periodic", critical, elapsed, retries, releases)
	}
}

// TestRealTimeJoinChunksBounded checks the chunked join exchange: chunks
// are pushed one per acknowledgement or retry, so a completed transfer
// sends one generation's chunks per digest plus its retransmissions, and
// nothing after it completes.
func TestRealTimeJoinChunksBounded(t *testing.T) {
	const objects = 40
	pn, bn := newRealNode(t), newRealNode(t)
	p := pn.start(t, Config{}, RolePrimary)
	specs := realSpecs(objects, 40*time.Millisecond)
	onReal(t, pn.clk, func() error {
		for _, s := range specs {
			if d := p.Register(s); !d.Accepted {
				return fmt.Errorf("%s rejected: %s", s.Name, d.Reason)
			}
			p.ClientWrite(s.Name, []byte("x"), nil)
		}
		return nil
	})
	b := bn.start(t, Config{Peer: pn.addr()}, RoleBackup)

	stats := func() (st TransferStats, ok bool) {
		onReal(t, pn.clk, func() error {
			if ps := p.PeerStates(); len(ps) == 1 {
				st, ok = ps[0].Transfer, true
			}
			return nil
		})
		return st, ok
	}
	onReal(t, bn.clk, func() error { b.Join(); return nil })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, ok := stats(); ok && st.Completions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("join exchange never completed")
		}
		time.Sleep(time.Millisecond)
	}
	done, _ := stats()
	time.Sleep(200 * time.Millisecond)
	later, _ := stats()
	perGen := (objects + 7) / 8 // ChunkEntries defaults to 8
	if limit := later.Digests*perGen + later.ChunkRetransmits; later.Chunks > limit {
		t.Fatalf("%d chunks for %d digests and %d retransmits, want ≤ %d", later.Chunks, later.Digests, later.ChunkRetransmits, limit)
	}
	if later.Digests == done.Digests && later.Chunks != done.Chunks {
		t.Fatalf("chunks kept flowing after the join completed: %d → %d", done.Chunks, later.Chunks)
	}
}

// TestRealTimeReleaseGroupsFillFrames checks that same-period update
// tasks registered over a spread of wall-clock time share release
// instants, so their updates leave in multi-update frames rather than
// one datagram per release.
func TestRealTimeReleaseGroupsFillFrames(t *testing.T) {
	const (
		objects  = 64
		spread   = 20 * time.Millisecond
		run      = time.Second
		wantMean = 4.0
	)
	pn, bn, p, b := newRealPair(t, func(c *Config) {
		c.Costs = CostModel{ClientOp: time.Microsecond, UpdateSend: time.Microsecond}
	})
	specs := realSpecs(objects, 40*time.Millisecond)
	var updates atomic.Int64
	onReal(t, pn.clk, func() error {
		p.OnSend = func(uint32, string, uint64, time.Time) { updates.Add(1) }
		return nil
	})
	for _, s := range specs {
		onReal(t, pn.clk, func() error {
			if d := p.Register(s); !d.Accepted {
				return fmt.Errorf("%s rejected: %s", s.Name, d.Reason)
			}
			p.ClientWrite(s.Name, []byte(s.Name), nil)
			return nil
		})
		time.Sleep(spread / objects)
	}
	deadline := time.Now().Add(5 * time.Second)
	for have := 0; have < objects; {
		onReal(t, bn.clk, func() error { have = len(b.Specs()); return nil })
		if time.Now().After(deadline) {
			t.Fatalf("backup holds %d of %d specs after 5s", have, objects)
		}
		time.Sleep(time.Millisecond)
	}

	// Every datagram the primary sends in the window counts, heartbeats
	// and registration retries included.
	u0, d0 := updates.Load(), pn.sent.Load()
	time.Sleep(run)
	u, d := updates.Load()-u0, pn.sent.Load()-d0
	if d == 0 {
		t.Fatal("primary sent no datagrams")
	}
	mean := float64(u) / float64(d)
	t.Logf("%d updates in %d datagrams: %.2f per datagram", u, d, mean)
	if mean < wantMean {
		t.Fatalf("%.2f updates per datagram, want ≥ %.0f: same-period releases are not sharing frames", mean, wantMean)
	}
}

// TestRealTimeFastRegistrationHoldsDeltaB registers the read-mix
// workload's 256 objects in one executor turn, microseconds apart. The
// release groups they form must spread over the period: if they released
// back to back, each release would enqueue more updates than the peer's
// send queue holds, and drop-oldest would push backup images past δ_B.
func TestRealTimeFastRegistrationHoldsDeltaB(t *testing.T) {
	const (
		objects = 256
		period  = 40 * time.Millisecond
		run     = time.Second
		warmup  = 200 * time.Millisecond
	)
	pn, bn, p, b := newRealPair(t, func(c *Config) {
		c.Costs = CostModel{ClientOp: time.Nanosecond, UpdateSend: time.Nanosecond}
	})
	specs := realSpecs(objects, period)
	for i := range specs {
		specs[i].Name = fmt.Sprintf("o%03d", i)
	}
	registerReal(t, pn, bn, p, b, specs)

	start := time.Now()
	var violations []string
	var sampler *clock.Periodic
	onReal(t, bn.clk, func() error {
		sampler = clock.NewPeriodic(bn.clk, 0, 5*time.Millisecond, func() {
			if time.Since(start) < warmup || len(violations) >= 5 {
				return
			}
			for _, s := range specs {
				c, ok := b.Certificate(s.Name)
				switch {
				case !ok:
					violations = append(violations, fmt.Sprintf("%s: no image at %v", s.Name, time.Since(start)))
				case c.Age >= c.Bound:
					violations = append(violations, fmt.Sprintf("%s: age %v ≥ δ_B %v at %v", s.Name, c.Age, c.Bound, time.Since(start)))
				}
			}
		})
		return nil
	})
	tick := time.NewTicker(period)
	for i := 0; time.Since(start) < run; i++ {
		<-tick.C
		payload := []byte(fmt.Sprintf("write %04d", i))
		pn.clk.Post(func() {
			for _, s := range specs {
				p.ClientWrite(s.Name, payload, nil)
			}
		})
	}
	tick.Stop()
	onReal(t, bn.clk, func() error { sampler.Stop(); return nil })

	var dropped int
	onReal(t, pn.clk, func() error {
		st, _ := p.PeerLink(bn.addr())
		dropped = st.Queue.DroppedOldest
		return nil
	})
	if dropped != 0 {
		t.Errorf("send queue dropped %d oldest entries, want 0", dropped)
	}
	for _, v := range violations {
		t.Errorf("backup certificate: %s", v)
	}
}
