package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"rtpb/internal/wire"
)

// metric is one reported figure with its unit and the sample count
// behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string // how a percentile was taken, when it was
}

const (
	usPerNS = 1e-3
	msPerNS = 1e-6
)

// pctMetric reports a percentile of ns samples scaled to unit.
func pctMetric(name, unit string, scale float64, samples []float64, want float64) metric {
	return pctOf(name, unit, scale, percentile(samples, want))
}

func pctOf(name, unit string, scale float64, p pct) metric {
	note := fmt.Sprintf("p%.4g", 100*p.Q)
	switch {
	case p.Sliced:
		note = fmt.Sprintf("median of %d per-slice %s", slices, note)
	case p.Thin:
		note += ", thin"
	}
	return metric{name: name, unit: unit, value: p.Value * scale, n: p.N, note: note}
}

// endToEnd computes the user-visible metrics of a finished run.
func (r *run) endToEnd() []metric {
	pr := r.pr
	from, to := r.win.from.Load(), r.win.to.Load()
	secs := r.win.seconds()
	ws, rs := r.opTotals()
	setup := percentile(r.setups, 0.5)
	sliced := func(name, unit string, scale float64, ts []int64, vs []float64, want float64) metric {
		return pctOf(name, unit, scale, slicedPercentile(ts, vs, from, to, want))
	}
	bT := pr.bT
	ms := []metric{
		{name: "setup_s", unit: "s", value: setup.Value, n: setup.N, note: "median"},
		{name: "admitted_objects", unit: "count", value: float64(len(pr.admitted)), n: r.offered, note: "of offered"},
		sliced("write_p50_ms", "ms", msPerNS, ws.due, ws.lat, 0.5),
		sliced("write_p99_ms", "ms", msPerNS, ws.due, ws.lat, 0.99),
		{name: "stale_ratio", unit: "ratio", value: ratio(float64(r.certStale), float64(len(r.certAges))), n: len(r.certAges)},
		sliced("age_p50_ms", "ms", msPerNS, r.certAt, r.certAges, 0.5),
		sliced("age_p90_ms", "ms", msPerNS, r.certAt, r.certAges, 0.9),
		sliced("age_p99_ms", "ms", msPerNS, r.certAt, r.certAges, 0.99),
		sliced("transit_p50_us", "us", usPerNS, bT.transitAt, bT.transit, 0.5),
		sliced("transit_p99_ms", "ms", msPerNS, bT.transitAt, bT.transit, 0.99),
		{name: "applies_per_s", unit: "1/s", value: float64(bT.applied) / secs, n: bT.applied},
	}
	if r.wl.readConns > 0 {
		ms = append(ms,
			sliced("read_p50_us", "us", usPerNS, rs.due, rs.lat, 0.5),
			sliced("read_p99_ms", "ms", msPerNS, rs.due, rs.lat, 0.99))
	}
	return append(ms,
		metric{name: "cpu_cores", unit: "cores", value: (r.b.cpu - r.a.cpu) / (float64(r.b.wall-r.a.wall) / 1e9), n: 1},
		metric{name: "failed_ratio", unit: "ratio", value: ratio(float64(ws.failed+rs.failed), float64(ws.attempted+rs.attempted)), n: ws.attempted + rs.attempted},
		metric{name: "converge_ms", unit: "ms", value: float64(r.converge) * msPerNS, n: len(pr.admitted)},
		pctOf("gen.late_p99_us", "us", usPerNS, r.genLate()),
		metric{name: "host.steal_frac", unit: "ratio", value: (r.b.steal - r.a.steal) / (float64(r.b.wall-r.a.wall) / 1e9) / float64(runtime.NumCPU()), n: 1},
	)
}

// opTotals summarises the writes and, merged over connections, the READs
// due in the window.
func (r *run) opTotals() (ws, rs opStats) {
	from, to := r.win.from.Load(), r.win.to.Load()
	ws = summarise(r.writes, from, to)
	for _, ops := range r.reads {
		s := summarise(ops, from, to)
		rs.attempted += s.attempted
		rs.failed += s.failed
		rs.due = append(rs.due, s.due...)
		rs.lat = append(rs.lat, s.lat...)
		rs.late = append(rs.late, s.late...)
	}
	return ws, rs
}

// counts reports operations attempted and failed in the window.
func (r *run) counts() (attempted, failed int) {
	ws, rs := r.opTotals()
	return ws.attempted + rs.attempted, ws.failed + rs.failed
}

// genLate is the generator's p99 lateness over every operation in the
// window.
func (r *run) genLate() pct {
	ws, rs := r.opTotals()
	return percentile(append(ws.late, rs.late...), 0.99)
}

// update is one replicated update joined across the traced seams, as
// instants on the benchmark's timebase.
type update struct {
	obj                   uint32
	seq                   uint64
	version               int64
	sendStart, sendEnd    int64 // the datagram's socket write at the primary
	enq, run, cb, applied int64 // backup: post enqueued, run, callback start, this update applied
}

// stages are an update's self-times; together they cover version →
// apply, less the instants between the executor picking up the post and
// the receive callback starting.
func (u update) stages() [5]int64 {
	return [5]int64{
		u.sendStart - u.version, // sched_wait
		u.sendEnd - u.sendStart, // send
		u.enq - u.sendEnd,       // handoff
		u.run - u.enq,           // post_wait
		u.applied - u.cb,        // recv, up to this update's apply
	}
}

var stageNames = [5]string{"sched_wait", "send", "handoff", "post_wait", "recv"}

// joinUpdates matches each update the backup applied in the window with
// its send record and the datagrams that carried it.
func (r *run) joinUpdates() []update {
	pr := r.pr
	type key struct {
		obj uint32
		seq uint64
	}
	sent := make(map[key]updRec, len(r.upSends))
	for _, s := range r.upSends {
		sent[key{s.obj, s.seq}] = s
	}
	dgs := pr.pT.sendsBySeq()
	rcv := make(map[uint64]recvRec, len(pr.bT.recvs))
	for _, rv := range pr.bT.recvs {
		rcv[rv.seq] = rv
	}
	var out []update
	for _, a := range r.upApply {
		s, ok1 := sent[key{a.obj, a.seq}]
		d, ok2 := dgs[a.dg]
		rv, ok3 := rcv[a.dg]
		if !ok1 || !ok2 || !ok3 || s.dg != a.dg {
			continue
		}
		out = append(out, update{obj: a.obj, seq: a.seq, version: a.version,
			sendStart: d.start, sendEnd: d.end, enq: rv.enq, run: rv.run, cb: rv.cb, applied: a.at})
	}
	return out
}

// perLayer computes the traced run's per-layer metrics.
func (r *run) perLayer() []metric {
	pr := r.pr
	secs := r.win.seconds()
	winNS := secs * 1e9
	a, b := r.a, r.b
	m := []metric{}
	add := func(name, unit string, v float64, n int) {
		m = append(m, metric{name: name, unit: unit, value: v, n: n})
	}
	for _, c := range []struct {
		role string
		tc   *tracedClock
	}{{"primary", pr.pTC}, {"backup", pr.bTC}} {
		add("clock."+c.role+".busy_frac", "ratio", float64(c.tc.busy)/winNS, 1)
		m = append(m, pctMetric("clock."+c.role+".post_wait_p99_us", "us", usPerNS, c.tc.postWait, 0.99))
		m = append(m, pctMetric("clock."+c.role+".timer_late_p99_us", "us", usPerNS, c.tc.timerLate, 0.99))
	}
	add("cpu.primary.modelled_busy_frac", "ratio", float64(b.pBusy-a.pBusy)/winNS, 1)
	m = append(m, pctMetric("cpu.primary.queue_p99", "count", 1, r.queueLen, 0.99))

	ups := r.joinUpdates()
	sched := make([]float64, len(ups))
	for i, u := range ups {
		sched[i] = float64(u.stages()[0])
	}
	var dgUpd, upd, bytes, dgSent int
	var sendNS []float64
	for _, s := range pr.pT.sends {
		if s.updates > 0 {
			dgUpd++
			upd += s.updates
			bytes += s.bytes
		}
		if !s.dropped {
			dgSent++
			sendNS = append(sendNS, float64(s.end-s.start))
		}
	}
	add("core.admission.utilization", "ratio", r.util, len(pr.admitted))
	m = append(m, pctMetric("core.sched_wait_p99_ms", "ms", msPerNS, sched, 0.99))
	add("core.updates_per_datagram", "count", ratio(float64(upd), float64(dgUpd)), dgUpd)
	add("core.apply_per_send", "ratio", ratio(float64(len(r.upApply)), float64(len(r.upSends))), len(r.upSends))
	add("core.sendq.coalesced", "count", float64(b.queue.Coalesced-a.queue.Coalesced), 1)
	add("core.sendq.dropped_oldest", "count", float64(b.queue.DroppedOldest-a.queue.DroppedOldest), 1)
	add("core.sendq.max_depth", "count", float64(b.queue.MaxDepth), 1)
	add("core.gaps", "count", float64(r.gaps), 1)
	add("core.retransmit.requested", "count", float64(b.retxReq-a.retxReq), 1)
	add("core.retransmit.suppressed", "count", float64(b.retxSup-a.retxSup), 1)

	sends := pr.pT.sendsBySeq()
	var handoff, recv []float64
	for _, rv := range pr.bT.recvs {
		s, ok := sends[rv.seq]
		if !ok || s.updates == 0 {
			continue
		}
		handoff = append(handoff, float64(rv.enq-s.end))
		recv = append(recv, float64(rv.cbEnd-rv.cb))
	}
	m = append(m, pctMetric("netsim.send_p99_us", "us", usPerNS, sendNS, 0.99))
	m = append(m, pctMetric("netsim.handoff_p99_us", "us", usPerNS, handoff, 0.99))
	m = append(m, pctMetric("xkernel.recv_p99_us", "us", usPerNS, recv, 0.99))
	add("netsim.datagrams_per_s", "1/s", float64(dgSent)/secs, dgSent)
	add("netsim.bytes_per_update", "B", ratio(float64(bytes), float64(upd)), upd)
	add("netsim.dropped", "count", float64(pr.pT.dropped), 1)
	add("wire.decode_ns_per_datagram", "ns", r.wireNS, len(pr.pT.captured))
	add("wire.decode_allocs_per_datagram", "count", r.wireAllocs, len(pr.pT.captured))

	// The WAL counters exist only where the workload runs one; elsewhere
	// they read zero.
	add("durable.primary.appended_per_s", "1/s", float64(b.pLog.Appended-a.pLog.Appended)/secs, 1)
	add("durable.backup.appended_per_s", "1/s", float64(b.bLog.Appended-a.bLog.Appended)/secs, 1)
	add("durable.primary.dropped", "count", float64(b.pLog.Dropped-a.pLog.Dropped), 1)
	add("durable.backup.dropped", "count", float64(b.bLog.Dropped-a.bLog.Dropped), 1)
	add("durable.primary.segments_pruned_per_s", "1/s", float64(b.pLog.PrunedSegments-a.pLog.PrunedSegments)/secs, 1)
	add("durable.backup.segments_pruned_per_s", "1/s", float64(b.bLog.PrunedSegments-a.bLog.PrunedSegments)/secs, 1)

	add("ctl.outstanding_max", "count", float64(r.outstanding.Load()), 1)
	add("ctl.errors", "count", float64(r.readErrs.Load()), 1)

	gcs := int(b.mem.NumGC - a.mem.NumGC)
	var pauses []float64
	for g := b.mem.NumGC; g > a.mem.NumGC && b.mem.NumGC-g < uint32(len(b.mem.PauseNs)); g-- {
		pauses = append(pauses, float64(b.mem.PauseNs[(g+255)%256]))
	}
	add("runtime.allocs_per_apply", "count", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), float64(pr.bT.applied)), pr.bT.applied)
	add("runtime.gc_cycles_per_s", "1/s", float64(gcs)/secs, gcs)
	if len(pauses) == 0 {
		add("runtime.gc_pause_p99_us", "us", 0, 0)
	} else {
		m = append(m, pctMetric("runtime.gc_pause_p99_us", "us", usPerNS, pauses, 0.99))
	}
	m = append(m, pctOf("gen.late_p99_us", "us", usPerNS, r.genLate()))
	return m
}

// stageReport prints, for the traced run, the mean stage self-times of
// the applied updates against the measured transit and apply lag; means
// add, so the unaccounted remainder is exact.
func (r *run) stageReport(w io.Writer) {
	ups := r.joinUpdates()
	if len(ups) == 0 {
		fmt.Fprintf(w, "stages: no update joined across the traced seams\n")
		return
	}
	var sum [5]float64
	var transit, lag float64
	for _, u := range ups {
		for i, s := range u.stages() {
			sum[i] += float64(s)
		}
		transit += float64(u.applied - u.sendStart)
		lag += float64(u.applied - u.version)
	}
	n := float64(len(ups))
	var total float64
	fmt.Fprintf(w, "stages (mean over %d updates applied in the window, us):", len(ups))
	for i, s := range sum {
		fmt.Fprintf(w, " %s=%.1f", stageNames[i], s/n*usPerNS)
		total += s / n
	}
	fmt.Fprintln(w)
	inTransit := total - sum[0]/n
	fmt.Fprintf(w, "stages: transit measured=%.1fus stages(send..recv)=%.1fus unaccounted=%.2fus\n",
		transit/n*usPerNS, inTransit*usPerNS, (transit/n-inTransit)*usPerNS)
	fmt.Fprintf(w, "stages: apply lag measured=%.1fus stages(all)=%.1fus unaccounted=%.2fus\n",
		lag/n*usPerNS, total*usPerNS, (lag/n-total)*usPerNS)
}

// writeSpans writes the traced run's spans as tab-separated lines: kind,
// id, span, start ns, end ns. Spans of one update share the id
// object/seq; writes are object/index, reads connection/index.
func (r *run) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, u := range r.joinUpdates() {
		edges := [6]int64{u.version, u.sendStart, u.sendEnd, u.enq, u.run, u.applied}
		for i, name := range stageNames {
			start, end := edges[i], edges[i+1]
			if name == "recv" {
				start = u.cb
			}
			fmt.Fprintf(bw, "update\t%d/%d\t%s\t%d\t%d\n", u.obj, u.seq, name, start, end)
		}
	}
	from, to := r.win.from.Load(), r.win.to.Load()
	for k, o := range r.writes {
		if o.due >= from && o.due < to {
			fmt.Fprintf(bw, "write\t%d/%d\twrite\t%d\t%d\n", r.pr.obj[r.wobj[k]], r.widx[k], o.due, o.done)
		}
	}
	for c, ops := range r.reads {
		for i, o := range ops {
			if o.due >= from && o.due < to {
				fmt.Fprintf(bw, "read\t%d/%d\tread\t%d\t%d\n", c, i, o.due, o.done)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireReplay decodes the captured update datagrams through wire's public
// decoder and reports the mean time and allocations per datagram.
func wireReplay(dgs [][]byte) (nsPer, allocsPer float64, err error) {
	if len(dgs) == 0 {
		return 0, 0, nil
	}
	const passes = 5
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, d := range dgs {
			if _, err := wire.Decode(d); err != nil {
				return 0, 0, fmt.Errorf("replay decode: %w", err)
			}
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(passes * len(dgs))
	return float64(el.Nanoseconds()) / n, float64(m1.Mallocs-m0.Mallocs) / n, nil
}
