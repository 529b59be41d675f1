package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/durable"
)

// Run-shape constants. They are part of the benchmark's definition: a
// change to any of them is a change to the benchmark.
const (
	setupRuns    = 15                    // pairs built per run; setup_s is their median
	warmup       = time.Second           // generator runs before the window opens
	certEvery    = 5 * time.Millisecond  // certificate sampler tick
	certBatch    = 10                    // certificates per tick: 2000 samples/s
	readGrace    = 5 * time.Second       // READ replies later than window end + grace fail
	writeGrace   = 60 * time.Second      // writes done later than window end + grace fail
	convergeWait = 10 * time.Second      // bound on post-drain convergence
	genLateLimit = 50 * time.Millisecond // generator p99 lateness above this invalidates the run
	pollEvery    = 5 * time.Millisecond  // drain/convergence polling
	maxFailNotes = 8                     // failure messages kept per checker
)

// run is one measured run of a workload on a fresh pair.
type run struct {
	wl      workload
	seed    int64
	traced  bool
	dur     time.Duration
	workdir string

	win      *window
	pr       *pair
	offered  int
	setups   []float64
	t0       int64
	a, b     snap
	drained  time.Duration // window end → primary idle and every write done
	converge time.Duration
	util     float64

	// writes is the write schedule in due order; wobj/widx name each
	// write's admitted object and its per-object index, and issuedPer
	// counts the writes scheduled per admitted object. doneWrites is
	// owned by the primary executor.
	writes     []op
	wobj       []int
	widx       []uint32
	issuedPer  []uint32
	doneWrites int

	reads       [][]op // per connection
	readNoImg   atomic.Int64
	readErrs    atomic.Int64
	outstanding atomic.Int64 // high-water in-flight READs on one connection

	certAges  []float64 // ns, in the window
	certAt    []int64
	certStale int

	// checkers record output-check failures; one per checking goroutine.
	checkers []*checker

	// traced-run records, owned by the executor that writes them.
	queueLen           []float64
	upSends            []updRec
	upApply            []updRec
	gaps               int
	wireNS, wireAllocs float64
}

// updRec is one update seen by a core hook: sent by the primary (dg is
// the carrying datagram) or applied by the backup.
type updRec struct {
	obj     uint32
	seq     uint64
	version int64
	dg      uint64
	at      int64
}

// snap is the counter state at a window edge.
type snap struct {
	wall             int64
	cpu              float64 // process CPU seconds
	steal            float64 // host CPU seconds stolen from this machine
	mem              runtime.MemStats
	pBusy            time.Duration
	queue            core.SendQueueStats
	retxReq, retxSup int
	pLog, bLog       durable.Stats
}

// execute builds the pair (setupRuns times, keeping the last), drives the
// workload through the window, drains, checks, and collects.
func (r *run) execute() error {
	rng := rand.New(rand.NewSource(r.seed))
	offered := r.wl.specs(rng)
	r.offered = len(offered)
	r.win = &window{}
	for k := 0; k < setupRuns; k++ {
		start := time.Now()
		pr, err := newPair(r.wl, r.seed, r.traced, r.win, r.workdir)
		if err == nil {
			if err = pr.register(offered); err != nil {
				pr.close()
			}
		}
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		if k < setupRuns-1 {
			pr.close()
		} else {
			r.pr = pr
		}
	}
	defer r.pr.close()
	pr := r.pr
	if len(pr.admitted) == 0 {
		return fmt.Errorf("admission accepted none of %d offered objects", r.offered)
	}
	if r.traced {
		if err := r.hook(); err != nil {
			return err
		}
	}

	r.t0 = now() + int64(10*time.Millisecond)
	from := r.t0 + int64(warmup)
	to := from + int64(r.dur)
	r.win.set(from, to)
	r.schedule(rng, to)

	var wg sync.WaitGroup
	stopSampler := make(chan struct{})
	samplerCk := r.newChecker()
	wg.Add(1)
	go func() { defer wg.Done(); r.generate() }()
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() { defer samplerWG.Done(); r.sample(stopSampler, samplerCk) }()
	for c := range r.reads {
		conn, err := net.Dial("tcp", pr.srv.Addr())
		if err != nil {
			return fmt.Errorf("dial ctl: %w", err)
		}
		ck := r.newChecker()
		wg.Add(1)
		go func() { defer wg.Done(); defer conn.Close(); r.readConn(c, conn, ck) }()
	}

	sleepUntil(from)
	var err error
	if r.a, err = r.snapshot(); err != nil {
		return err
	}
	sleepUntil(to)
	if r.b, err = r.snapshot(); err != nil {
		return err
	}
	close(stopSampler)
	samplerWG.Wait()
	wg.Wait()

	if err := r.drain(to + int64(writeGrace)); err != nil {
		return err
	}
	r.drained = time.Duration(now() - to)
	if err := r.awaitConvergence(); err != nil {
		return err
	}
	return r.collect()
}

// hook installs the traced run's core callbacks.
func (r *run) hook() error {
	pr := r.pr
	if err := onExec(pr.pClk, func() error {
		pr.p.OnSend = func(id uint32, _ string, seq uint64, version time.Time) {
			if t := now(); r.win.in(t) {
				r.upSends = append(r.upSends, updRec{obj: id, seq: seq, version: version.UnixNano(), dg: pr.pT.lastSeq, at: t})
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return onExec(pr.bClk, func() error {
		pr.b.OnApply = func(id uint32, _ string, _ uint32, seq uint64, version, _ time.Time) {
			if t := now(); r.win.in(t) {
				r.upApply = append(r.upApply, updRec{obj: id, seq: seq, version: version.UnixNano(), dg: pr.bT.curSeq, at: t})
			}
		}
		pr.b.OnGap = func(uint32, uint64, uint64) {
			if r.win.in(now()) {
				r.gaps++
			}
		}
		return nil
	})
}

// schedule lays out the open-loop inputs: every admitted object is
// written at its declared period from a seeded phase, and each READ
// connection issues reads at a fixed rate with seeded keys, all due
// before the window closes.
func (r *run) schedule(rng *rand.Rand, to int64) {
	pr := r.pr
	type w struct {
		due int64
		obj int
		idx uint32
	}
	var ws []w
	r.issuedPer = make([]uint32, len(pr.admitted))
	for i, s := range pr.admitted {
		p := int64(s.UpdatePeriod)
		for due, k := r.t0+rng.Int63n(p), uint32(0); due < to; due, k = due+p, k+1 {
			ws = append(ws, w{due, i, k})
			r.issuedPer[i]++
		}
	}
	sort.Slice(ws, func(a, b int) bool { return ws[a].due < ws[b].due })
	r.writes = make([]op, len(ws))
	r.wobj = make([]int, len(ws))
	r.widx = make([]uint32, len(ws))
	for i, x := range ws {
		r.writes[i].due, r.wobj[i], r.widx[i] = x.due, x.obj, x.idx
	}
	r.reads = make([][]op, r.wl.readConns)
	for c := range r.reads {
		for i := 0; ; i++ {
			due := r.readDue(c, i)
			if due >= to {
				break
			}
			r.reads[c] = append(r.reads[c], op{due: due})
		}
	}
}

// readDue is when READ i on connection c is due: the connections share
// the fixed rate, interleaved.
func (r *run) readDue(c, i int) int64 {
	interval := float64(time.Second) * float64(r.wl.readConns) / r.wl.readRate
	return r.t0 + int64((float64(i)+float64(c)/float64(r.wl.readConns))*interval)
}

// readKey is the admitted object READ i on connection c asks for.
func (r *run) readKey(c, i int) int {
	x := uint64(r.seed)*0x9e3779b97f4a7c15 + uint64(c)<<40 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(r.pr.admitted)))
}

// generate is the one write-generator goroutine. It sleeps until the next
// write is due, then posts every write now due to the primary as one
// executor call; payloads are built here, off the replicas' executors.
func (r *run) generate() {
	pr := r.pr
	for i := 0; i < len(r.writes); {
		t := now()
		if d := r.writes[i].due - t; d > 0 {
			time.Sleep(time.Duration(d))
			continue
		}
		j := i
		for j < len(r.writes) && r.writes[j].due <= t {
			r.writes[j].issued = t
			j++
		}
		lo, hi := i, j
		data := make([][]byte, hi-lo)
		for k := lo; k < hi; k++ {
			s := pr.admitted[r.wobj[k]]
			data[k-lo] = payload(r.seed, pr.obj[r.wobj[k]], r.widx[k], s.Size)
		}
		pr.pClk.Post(func() {
			for k := lo; k < hi; k++ {
				pr.p.ClientWrite(pr.admitted[r.wobj[k]].Name, data[k-lo], func(_ time.Duration, err error) {
					r.writes[k].done = now()
					r.writes[k].err = err != nil
					r.doneWrites++
				})
			}
		})
		i = j
	}
}

// certSample is one backup certificate read by the sampler.
type certSample struct {
	obj     int
	at      time.Time
	applied bool
	version time.Time
	value   []byte
}

// sample is the certificate sampler: every certEvery it reads the next
// certBatch admitted objects' certificates on the backup, round robin,
// and checks them off the executor. On the traced run it also samples
// the primary's CPU queue length.
func (r *run) sample(stop <-chan struct{}, ck *checker) {
	pr := r.pr
	tick := time.NewTicker(certEvery)
	defer tick.Stop()
	next := 0
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		first := next
		next = (next + certBatch) % len(pr.admitted)
		got := make(chan []certSample, 1)
		pr.bClk.Post(func() {
			at := time.Now()
			out := make([]certSample, 0, certBatch)
			for k := 0; k < certBatch; k++ {
				i := (first + k) % len(pr.admitted)
				c, ok := pr.b.Certificate(pr.admitted[i].Name)
				out = append(out, certSample{obj: i, at: at, applied: ok, version: c.Version, value: c.Value})
			}
			got <- out
		})
		if r.traced {
			pr.pClk.Post(func() {
				if r.win.in(now()) {
					r.queueLen = append(r.queueLen, float64(pr.p.CPU().QueueLen()))
				}
			})
		}
		var batch []certSample
		select {
		case batch = <-got:
		case <-stop:
			return
		}
		for _, s := range batch {
			if s.applied {
				ck.image(s.obj, s.value, s.version, "backup certificate")
			}
			if !r.win.in(s.at.UnixNano()) {
				continue
			}
			age := certAge(s.applied, s.version, pr.registered[s.obj], s.at)
			r.certAges = append(r.certAges, float64(age))
			r.certAt = append(r.certAt, s.at.UnixNano())
			if certStale(s.applied, age, pr.admitted[s.obj].Constraint.DeltaB) {
				r.certStale++
			}
		}
	}
}

// readConn drives one pipelined ctl connection: a writer goroutine issues
// READs as they fall due, and this goroutine reads the replies in order.
func (r *run) readConn(c int, conn net.Conn, ck *checker) {
	pr := r.pr
	ops := r.reads[c]
	var replied atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bw := bufio.NewWriter(conn)
		for i := 0; i < len(ops); {
			t := now()
			if d := ops[i].due - t; d > 0 {
				time.Sleep(time.Duration(d))
				continue
			}
			for ; i < len(ops) && ops[i].due <= t; i++ {
				ops[i].issued = t
				bw.WriteString("READ ")
				bw.WriteString(pr.admitted[r.readKey(c, i)].Name)
				bw.WriteByte('\n')
			}
			if bw.Flush() != nil {
				return
			}
			out := int64(i) - replied.Load()
			for m := r.outstanding.Load(); out > m && !r.outstanding.CompareAndSwap(m, out); m = r.outstanding.Load() {
			}
		}
	}()
	defer wg.Wait()
	conn.SetReadDeadline(time.Unix(0, r.win.to.Load()).Add(readGrace))
	br := bufio.NewReader(conn)
	for i := range ops {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close() // unblocks the writer; the rest count as unfinished
			return
		}
		ops[i].done = now()
		replied.Add(1)
		obj := r.readKey(c, i)
		switch val, ver, err := parseRead(strings.TrimSpace(line)); {
		case err == errNoImage:
			r.readNoImg.Add(1)
		case err != nil:
			ops[i].err = true
			r.readErrs.Add(1)
			ck.fail("READ %s: %v", pr.admitted[obj].Name, err)
		default:
			ck.image(obj, val, ver, "READ reply")
		}
	}
}

// errNoImage is the backup's correct answer for an admitted object it has
// not yet received: the read completed, there is just nothing to serve.
var errNoImage = errors.New("no image")

// parseRead parses a READ reply: OK <base64> <version> followed by the
// certificate fields, of which age= and delta= must be present and parse.
func parseRead(line string) ([]byte, time.Time, error) {
	if line == "ERR not found" {
		return nil, time.Time{}, errNoImage
	}
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "OK" {
		return nil, time.Time{}, fmt.Errorf("malformed reply %q", line)
	}
	val, err := base64.StdEncoding.DecodeString(f[1])
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("value: %w", err)
	}
	ver, err := time.Parse(time.RFC3339Nano, f[2])
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("version: %w", err)
	}
	need := map[string]bool{"age": false, "delta": false}
	for _, kv := range f[3:] {
		k, v, ok := strings.Cut(kv, "=")
		if _, want := need[k]; !ok || !want {
			continue
		}
		if _, err := time.ParseDuration(v); err != nil {
			return nil, time.Time{}, fmt.Errorf("%s=: %w", k, err)
		}
		need[k] = true
	}
	for k, seen := range need {
		if !seen {
			return nil, time.Time{}, fmt.Errorf("reply lacks %s= in %q", k, line)
		}
	}
	return val, ver, nil
}

// snapshot reads the counters at a window edge.
func (r *run) snapshot() (snap, error) {
	pr := r.pr
	s := snap{wall: now(), cpu: cpuSeconds(), steal: stealSeconds()}
	if !r.traced {
		return s, nil
	}
	runtime.ReadMemStats(&s.mem)
	if err := onExec(pr.pClk, func() error {
		s.pBusy = pr.p.CPU().BusyTime()
		if l, ok := pr.p.PeerLink(pr.backupAddr); ok {
			s.queue = l.Queue
		}
		return nil
	}); err != nil {
		return s, err
	}
	if err := onExec(pr.bClk, func() error {
		s.retxReq, s.retxSup = pr.b.RetransmitStats()
		return nil
	}); err != nil {
		return s, err
	}
	if pr.pLog != nil {
		s.pLog, s.bLog = pr.pLog.Stats(), pr.bLog.Stats()
	}
	return s, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// drain waits, up to deadline, for the primary's CPU queue to empty and
// every write to complete.
func (r *run) drain(deadline int64) error {
	for {
		var idle bool
		if err := onExec(r.pr.pClk, func() error {
			cpu := r.pr.p.CPU()
			idle = cpu.QueueLen() == 0 && !cpu.Busy() && r.doneWrites == len(r.writes)
			return nil
		}); err != nil {
			return err
		}
		if idle || now() > deadline {
			return nil
		}
		time.Sleep(pollEvery)
	}
}

// awaitConvergence checks that every admitted object on the backup
// reaches the primary's value within convergeWait once the primary is
// idle, and records how long that took.
func (r *run) awaitConvergence() error {
	pr := r.pr
	start := time.Now()
	image := func(clk clock.Clock, rep *core.Replica) ([][]byte, []time.Time, error) {
		vals := make([][]byte, len(pr.admitted))
		vers := make([]time.Time, len(pr.admitted))
		err := onExec(clk, func() error {
			for i, s := range pr.admitted {
				vals[i], vers[i], _ = rep.Value(s.Name)
			}
			return nil
		})
		return vals, vers, err
	}
	for {
		pv, pt, err := image(pr.pClk, pr.p)
		if err != nil {
			return err
		}
		bv, bt, err := image(pr.bClk, pr.b)
		if err != nil {
			return err
		}
		lag := -1
		for i := range pv {
			if !bytes.Equal(pv[i], bv[i]) || !pt[i].Equal(bt[i]) {
				lag = i
				break
			}
		}
		if lag < 0 {
			r.converge = time.Since(start)
			return nil
		}
		if time.Since(start) > convergeWait {
			r.converge = time.Since(start)
			r.checkers[0].fail("backup did not converge to the primary within %v (object %s differs)",
				convergeWait, pr.admitted[lag].Name)
			return nil
		}
		time.Sleep(pollEvery)
	}
}

// collect gathers executor-owned results behind barriers and runs the
// end-of-run checks.
func (r *run) collect() error {
	pr := r.pr
	if err := onExec(pr.pClk, func() error { r.util = pr.p.Utilization(); return nil }); err != nil {
		return err
	}
	// A barrier on the backup executor, after which its records (applies,
	// gaps, transit) are safe to read here.
	if err := onExec(pr.bClk, func() error { return nil }); err != nil {
		return err
	}
	for _, ck := range r.checkers {
		for i, m := range ck.maxIdx {
			if m >= int64(r.issuedPer[i]) {
				ck.fail("%s holds write %d but only %d were issued", pr.admitted[i].Name, m, r.issuedPer[i])
			}
		}
	}
	return nil
}

// checker runs the output checks on images one goroutine observes.
type checker struct {
	r       *run
	lastVer []int64 // newest version seen per admitted object
	maxIdx  []int64 // highest write index seen per admitted object
	notes   []string
	fails   int
}

// newChecker registers a checker; call before the goroutine using it
// starts.
func (r *run) newChecker() *checker {
	n := len(r.pr.admitted)
	ck := &checker{r: r, lastVer: make([]int64, n), maxIdx: make([]int64, n)}
	for i := range ck.maxIdx {
		ck.maxIdx[i] = -1
	}
	r.checkers = append(r.checkers, ck)
	return ck
}

func (ck *checker) fail(format string, args ...any) {
	ck.fails++
	if len(ck.notes) < maxFailNotes {
		ck.notes = append(ck.notes, fmt.Sprintf(format, args...))
	}
}

// image checks one served image of admitted object obj: it must be a
// write actually made to that object, byte for byte, and its version
// must not be older than one this observer already saw.
func (ck *checker) image(obj int, val []byte, ver time.Time, what string) {
	pr := ck.r.pr
	name := pr.admitted[obj].Name
	o, idx, ok := decodePayload(val)
	switch {
	case !ok || o != pr.obj[obj]:
		ck.fail("%s of %s is not a write to it", what, name)
		return
	case !bytes.Equal(val, payload(ck.r.seed, o, idx, pr.admitted[obj].Size)):
		ck.fail("%s of %s does not match write %d", what, name, idx)
		return
	}
	ck.maxIdx[obj] = max(ck.maxIdx[obj], int64(idx))
	if v := ver.UnixNano(); v < ck.lastVer[obj] {
		ck.fail("%s of %s went back in version", what, name)
	} else {
		ck.lastVer[obj] = v
	}
}

// stealSeconds reads the time the hypervisor ran something else while
// this machine's CPUs wanted to run, summed over CPUs; zero where the
// kernel does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
