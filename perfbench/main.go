// Command perfbench is the wall-clock benchmark of the RTPB replica pair.
//
// One run builds an in-process primary and backup, each on its own
// clock.RealClock and loopback UDP socket (no injected delay, ℓ = 5 ms),
// drives them open loop from a seeded generator through the public API
// (Primary.Register, Primary.ClientWrite, Replica.Certificate) and ctl
// READs over TCP, checks every image it is served, and prints every
// end-to-end metric with its unit and sample count. With -trace 1 it
// runs the workload twice, untraced and then traced through wrappers of
// the replicas' seams, and prints the per-layer metrics, the stage
// breakdown of the replication path and the tracing overhead.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics BENCHMARK.json names. The command
// exits non-zero when an output check fails or the generator fell behind
// its schedule. Run it through run.py, which builds it:
//
//	python3 perfbench/run.py --workload flood-durable --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// network is the fabric every result is measured on.
const network = "loopback UDP, no injected delay, ℓ = 5 ms"

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// metricSpec is one metric BENCHMARK.json defines.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func benchMain(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wlName := fl.String("workload", "", "workload to run: admission-full, flood-durable or read-mix")
	seed := fl.Int64("seed", 1, "workload seed: specs, phases, payloads, loss draws and READ keys derive from it")
	seconds := fl.Int("seconds", 10, "length of the measured window")
	trace := fl.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	bench := fl.String("benchmark", "BENCHMARK.json", "benchmark definition naming the reported metrics")
	workdir := fl.String("workdir", ".bench_build/work", "directory for WAL directories and span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	wl, err := findWorkload(*wlName)
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(*bench)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail(err)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": provenance(wl.name, *seed, *seconds, *trace, filepath.Dir(*bench))})
	fmt.Fprintln(out, string(prov))

	newRun := func(traced bool) *run {
		return &run{wl: wl, seed: *seed, traced: traced, dur: time.Duration(*seconds) * time.Second, workdir: *workdir}
	}
	plain := newRun(false)
	if err := plain.execute(); err != nil {
		return fail(err)
	}
	e2e := plain.endToEnd()
	printMetrics(out, "e2e", e2e)
	correct := plain.report(out)
	attempted, failed := plain.counts()
	metrics, want := e2e, spec.EndToEnd

	if *trace == 1 {
		traced := newRun(true)
		if err := traced.execute(); err != nil {
			return fail(err)
		}
		if traced.wireNS, traced.wireAllocs, err = wireReplay(traced.pr.pT.captured); err != nil {
			return fail(err)
		}
		correct = traced.report(out) && correct
		overhead(out, e2e, traced.endToEnd())
		traced.stageReport(out)
		metrics, want = traced.perLayer(), spec.PerLayer
		printMetrics(out, "layer", metrics)
		spans := filepath.Join(*workdir, "spans-"+wl.name+".tsv")
		if err := traced.writeSpans(spans); err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "spans: %s\n", spans)
		attempted, failed = traced.counts()
	}

	vals, err := pick(metrics, want)
	if err != nil {
		return fail(err)
	}
	res, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": vals})
	fmt.Fprintln(out, string(res))
	if !correct {
		return 1
	}
	return 0
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// pick selects the metrics the benchmark definition names, in its order,
// and refuses a missing one, a unit mismatch or a non-finite value.
func pick(ms []metric, want []metricSpec) (map[string]map[string]any, error) {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.name] = m
	}
	out := map[string]map[string]any{}
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s is not measured", w.Name)
		case m.unit != w.Unit:
			return nil, fmt.Errorf("metric %s is measured in %s, defined in %s", w.Name, m.unit, w.Unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			return nil, fmt.Errorf("metric %s has no finite value (%v over %d samples)", w.Name, m.value, m.n)
		}
		out[w.Name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out, nil
}

func printMetrics(w io.Writer, kind string, ms []metric) {
	for _, m := range ms {
		note := fmt.Sprintf("n=%d", m.n)
		if m.note != "" {
			note = m.note + ", " + note
		}
		fmt.Fprintf(w, "%-5s %-40s %14.6g %-6s (%s)\n", kind, m.name, m.value, m.unit, note)
	}
}

// overhead prints how far each end-to-end figure moved between the
// untraced and the traced run: the cost of the tracing itself.
func overhead(w io.Writer, plain, traced []metric) {
	byName := map[string]metric{}
	for _, m := range traced {
		byName[m.name] = m
	}
	for _, p := range plain {
		t := byName[p.name]
		moved := "n/a"
		if p.value != 0 {
			moved = fmt.Sprintf("%+.1f%%", 100*(t.value-p.value)/p.value)
		}
		fmt.Fprintf(w, "overhead %-28s untraced=%-12.6g traced=%-12.6g moved=%s\n", p.name, p.value, t.value, moved)
	}
}

// report prints the pair's health and the output checks, and reports
// whether the run is valid: every check passed and the generator kept
// its schedule.
func (r *run) report(w io.Writer) bool {
	phase := "untraced"
	if r.traced {
		phase = "traced"
	}
	fmt.Fprintf(w, "run %s: detector verdicts primary=%d backup=%d, READ no-image replies=%d, drained %v after the window, then converged in %v\n",
		phase, r.pr.pDead, r.pr.bDead, r.readNoImg.Load(), r.drained.Round(time.Millisecond), r.converge.Round(time.Millisecond))
	ok := true
	for _, ck := range r.checkers {
		if ck.fails > 0 {
			ok = false
			fmt.Fprintf(w, "check FAILED (%d): %s\n", ck.fails, strings.Join(ck.notes, "; "))
		}
	}
	if late := r.genLate(); late.Value > float64(genLateLimit) {
		ok = false
		fmt.Fprintf(w, "check FAILED: generator fell behind its schedule (p%g lateness %v > %v); the run measures the harness, not the system\n",
			100*late.Q, time.Duration(late.Value), genLateLimit)
	}
	if ok {
		reads := ""
		if r.wl.readConns > 0 {
			reads = ", READ replies parse"
		}
		fmt.Fprintf(w, "check %s: images are writes made to their object, versions never went back%s, backup converged\n", phase, reads)
	}
	return ok
}

// provenance records where and how a result was measured.
func provenance(wl string, seed int64, seconds, trace int, root string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"clock":      "wall",
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest(root),
		"workload":   wl,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"network":    network,
	}
}

// cpuModel names the processor from the kernel's cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, walked
// in lexical order and named relative to the checkout, so a result names
// the code it measured even where there is no git commit.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && p != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod"):
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
