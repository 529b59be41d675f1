package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rtpb"
	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/ctl"
	"rtpb/internal/durable"
	"rtpb/internal/failover"
	"rtpb/internal/netsim"
	"rtpb/internal/xkernel"
)

// pair is an in-process primary and backup, each on its own RealClock and
// loopback UDP socket, wired the way rtpbd wires a replica.
type pair struct {
	pRC, bRC   *clock.RealClock
	pClk, bClk clock.Clock  // what the replicas run on
	pTC, bTC   *tracedClock // nil on the untraced run
	pT, bT     *benchTransport
	p, b       *core.Replica
	pDet, bDet *failover.Detector
	pLog, bLog *durable.Log
	srv        *ctl.Server
	dir        string
	backupAddr xkernel.Addr

	// pDead and bDead count failure-detector verdicts on each side;
	// written on the executors, read after a barrier.
	pDead, bDead int

	// admitted lists the admitted specs in registration order; obj maps
	// each to its index in the offered set, registered to its admission
	// instant.
	admitted   []core.ObjectSpec
	obj        []uint32
	registered []time.Time
}

// newPair builds both replicas and their ctl server; with traced set the
// replicas run on tracedClocks. The caller closes the pair.
func newPair(wl workload, seed int64, traced bool, win *window, workdir string) (pr *pair, err error) {
	pr = &pair{}
	defer func() {
		if err != nil {
			pr.close()
			pr = nil
		}
	}()
	pr.pRC, pr.bRC = clock.NewReal(), clock.NewReal()
	pr.pClk, pr.bClk = pr.pRC, pr.bRC
	if traced {
		pr.pTC = &tracedClock{RealClock: pr.pRC, win: win}
		pr.bTC = &tracedClock{RealClock: pr.bRC, win: win}
		pr.pClk, pr.bClk = pr.pTC, pr.bTC
	}
	// Each socket, its wrapper and its protocol graph are built on the
	// replica's own executor, which is where their receive path runs.
	endpoint := func(clk clock.Clock, tc *tracedClock, loss float64, lossSeed int64) (t *benchTransport, port *xkernel.PortProtocol, err error) {
		err = onExec(clk, func() error {
			u, err := netsim.NewUDP(clk, "127.0.0.1:0")
			if err != nil {
				return err
			}
			t = newBenchTransport(u, win, tc, loss, lossSeed)
			port, err = rtpb.NewStack(t)
			return err
		})
		return t, port, err
	}
	pT, pPort, err := endpoint(pr.pClk, pr.pTC, wl.loss, seed^0x1055)
	pr.pT = pT
	if err != nil {
		return pr, err
	}
	bT, bPort, err := endpoint(pr.bClk, pr.bTC, 0, seed)
	pr.bT = bT
	if err != nil {
		return pr, err
	}
	if wl.durable {
		if pr.dir, err = os.MkdirTemp(workdir, "wal-"); err != nil {
			return pr, err
		}
		if pr.pLog, err = durable.Open(durable.Config{Dir: filepath.Join(pr.dir, "primary")}); err != nil {
			return pr, err
		}
		if pr.bLog, err = durable.Open(durable.Config{Dir: filepath.Join(pr.dir, "backup")}); err != nil {
			return pr, err
		}
	}
	pr.backupAddr = peerAddr(pr.bT.LocalAddr())
	bcfg := core.Config{Clock: pr.bClk, Port: bPort, Ell: ell, Costs: wl.costs,
		Durable: pr.bLog, Peer: peerAddr(pr.pT.LocalAddr())}
	pcfg := core.Config{Clock: pr.pClk, Port: pPort, Ell: ell, Costs: wl.costs,
		Durable: pr.pLog, Peers: []xkernel.Addr{pr.backupAddr}}
	if err := onExec(pr.bClk, func() error {
		b, err := core.NewReplica(bcfg, core.RoleBackup)
		if err != nil {
			return err
		}
		pr.b = b
		return pr.wireBackupDetector()
	}); err != nil {
		return pr, err
	}
	if err := onExec(pr.pClk, func() error {
		p, err := core.NewReplica(pcfg, core.RolePrimary)
		if err != nil {
			return err
		}
		pr.p = p
		return pr.wirePrimaryDetector()
	}); err != nil {
		return pr, err
	}
	pr.srv, err = ctl.NewServer(pr.bClk, pr.b, "127.0.0.1:0")
	return pr, err
}

// peerAddr names a replica's RTPB endpoint behind its UDP socket.
func peerAddr(udp string) xkernel.Addr {
	return xkernel.Addr(fmt.Sprintf("%s:%d", udp, rtpb.RTPBPort))
}

// wirePrimaryDetector mirrors rtpbd: a dead backup stops update events and
// is probed again after two seconds.
func (pr *pair) wirePrimaryDetector() error {
	p := pr.p
	det, err := failover.NewDetector(pr.pClk, failover.DefaultDetectorConfig(), p.SendPing, func() {
		pr.pDead++
		p.SetBackupAlive(false)
		pr.pClk.Schedule(2*time.Second, func() {
			if p.Running() {
				pr.pDet.Reset()
				pr.pDet.Start()
			}
		})
	})
	if err != nil {
		return err
	}
	pr.pDet = det
	p.OnPingAck = func(seq uint64) {
		if !p.BackupAlive() {
			p.SetBackupAlive(true)
		}
		det.OnAck(seq)
	}
	det.Start()
	return nil
}

// wireBackupDetector mirrors rtpbd without -takeover: a dead primary is
// only counted and probed again.
func (pr *pair) wireBackupDetector() error {
	b := pr.b
	det, err := failover.NewDetector(pr.bClk, failover.DefaultDetectorConfig(), b.SendPing, func() {
		pr.bDead++
		pr.bClk.Schedule(2*time.Second, func() {
			if b.Running() {
				pr.bDet.Reset()
				pr.bDet.Start()
			}
		})
	})
	if err != nil {
		return err
	}
	pr.bDet = det
	b.OnPingAck = det.OnAck
	det.Start()
	return nil
}

// register offers the specs to the primary and waits until the backup
// holds every admitted one.
func (pr *pair) register(offered []core.ObjectSpec) error {
	if err := onExec(pr.pClk, func() error {
		for i, s := range offered {
			if d := pr.p.Register(s); d.Accepted {
				pr.admitted = append(pr.admitted, s)
				pr.obj = append(pr.obj, uint32(i))
				pr.registered = append(pr.registered, time.Now())
			}
		}
		return nil
	}); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var have int
		if err := onExec(pr.bClk, func() error { have = len(pr.b.Specs()); return nil }); err != nil {
			return err
		}
		if have >= len(pr.admitted) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: backup holds %d of %d admitted specs after 10s", have, len(pr.admitted))
		}
		// No sleep between polls: a timer's oversleep would be counted
		// as set-up time. Each poll already waits for the executor.
	}
}

// close stops everything the pair started and waits for it.
func (pr *pair) close() {
	stop := func(clk clock.Clock, r *core.Replica, det *failover.Detector) {
		if clk == nil {
			return
		}
		_ = onExec(clk, func() error {
			if det != nil {
				det.Stop()
			}
			if r != nil {
				r.Stop()
			}
			return nil
		})
	}
	stop(pr.pClk, pr.p, pr.pDet)
	stop(pr.bClk, pr.b, pr.bDet)
	if pr.srv != nil {
		pr.srv.Close()
	}
	for _, t := range []*benchTransport{pr.pT, pr.bT} {
		if t != nil {
			t.Close()
		}
	}
	for _, c := range []*clock.RealClock{pr.pRC, pr.bRC} {
		if c != nil {
			c.Stop()
		}
	}
	for _, l := range []*durable.Log{pr.pLog, pr.bLog} {
		if l != nil {
			l.Close()
		}
	}
	if pr.dir != "" {
		os.RemoveAll(pr.dir)
	}
}

// onExec runs fn on a clock's executor and waits for it. It is also the
// barrier that makes executor-owned state safe to read afterwards.
func onExec(clk clock.Clock, fn func() error) error {
	done := make(chan error, 1)
	clk.Post(func() { done <- fn() })
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		return fmt.Errorf("executor did not run a posted call within 30s")
	}
}
