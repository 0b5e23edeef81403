// Command perfbench is the repository's end-to-end benchmark. It sets
// up the program in-process from the committed weights under models/,
// drives one seeded workload with closed-loop clients, checks every
// output against direct core.InferOne results, and prints each metric
// by name with its unit; the last line of standard output is one JSON
// object. See README.md in this directory.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload fleet-mnist --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"samples_per_s", "1/s"},
	{"mean_ms", "ms"},
	{"p99_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"accuracy", "ratio"},
	{"spikes_per_sample", "spikes"},
	{"latency_steps", "steps"},
	{"heap_mb", "MB"},
}

// maxStages bounds the per-stage spike metrics: the tiny VGG-9 has 8
// fire boundaries, LeNet 4.
const maxStages = 8

// perLayer are the traced run's metrics, one layer boundary each. A
// layer the workload does not exercise reads 0 and is listed in the
// run's notes.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"dataset.gen_s", "s"}, {"dnn.load_s", "s"}, {"dnn.eval_s", "s"},
		{"convert.convert_s", "s"}, {"kernel.go_s", "s"}, {"core.warm_s", "s"},
		{"serve.start_s", "s"}, {"gateway.ready_s", "s"},
		{"core.evaluate_us_per_sample", "us"}, {"core.alloc_bytes_per_sample", "bytes"},
		{"core.gc_cycles", "count/pass"},
		{"core.infer_us.clocked", "us"}, {"core.infer_us.event", "us"},
		{"core.infer_us.quant", "us"}, {"core.infer_us.analytic", "us"},
	}
	for s := 0; s < maxStages; s++ {
		d = append(d, metricDef{fmt.Sprintf("core.spikes.stage%d", s), "spikes"})
	}
	return append(d, []metricDef{
		{"core.early_exit_share", "ratio"}, {"core.steps_saved_per_sample", "steps"},
		{"core.events_saved_per_sample", "events"},
		{"serve.handler_us.p50", "us"}, {"serve.handler_us.p99", "us"},
		{"serve.engine_us.p50", "us"}, {"serve.engine_us.p99", "us"},
		{"serve.self_us.json", "us"}, {"serve.self_us.binary", "us"},
		{"serve.latency_path_share", "ratio"},
		{"serve.rejected", "count"}, {"serve.expired", "count"}, {"serve.failed", "count"},
		{"wire.decode_ns", "ns"}, {"wire.encode_ns", "ns"}, {"wire.stream_event_ns", "ns"},
		{"wire.bytes_per_request.json", "bytes"}, {"wire.bytes_per_request.binary", "bytes"},
		{"stream.self_us", "us"}, {"stream.retries", "count"},
		{"gateway.self_us", "us"}, {"gateway.attempts_per_request", "count"},
		{"gateway.hedges_fired", "count"}, {"gateway.hedges_won", "count"}, {"gateway.retries", "count"},
		{"http.client_us", "us"},
		{"runtime.gc_pause_ms", "ms/pass"},
		{"trace.overhead_pct", "%"}, {"trace.sum_residual_us", "us"},
	}...)
}()

// setupChildren is how many extra fresh processes time the set-up;
// setup_s is the median over them and the run's own set-up.
const setupChildren = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	w         *workload
	seed      uint64
	seconds   float64
	trace     bool
	models    string
	nproc     int
	setupOnly bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: offline-cifar100|oneshot-mnist|stream-mnist|fleet-mnist (BENCHMARK.json lists all but oneshot-mnist)")
	seed := fs.Uint64("seed", 1, "request-set seed: orders the samples and picks each request's wire format")
	seconds := fs.Float64("seconds", 10, "minimum measured time, in whole passes over the request set")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	models := fs.String("models", "models", "directory of the committed weights")
	setupOnly := fs.Bool("setup-only", false, "set up the workload, print setup_s and exit (used to time set-up in fresh processes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d (want 0 or 1)\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		models: *models, nproc: runtime.NumCPU(), setupOnly: *setupOnly}
	if st, err := os.Stat(cfg.models); err != nil || !st.IsDir() {
		fmt.Fprintf(stderr, "perfbench: no weight directory %q; run from the repository root\n", cfg.models)
		return 1
	}
	if cfg.setupOnly {
		sys, err := setUp(w, cfg.models, cfg.nproc, nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		sys.close()
		fmt.Fprintf(stdout, "setup_s %.9f\n", sys.elapsed.Seconds())
		return 0
	}
	res, err := bench(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects a run's metrics, counts and notes and prints them.
type report struct {
	out       io.Writer
	metrics   map[string]float64
	notes     []string
	attempted int
	failed    int
	wrong     []string // correctness failures beyond failed operations
}

func (r *report) notef(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// finish prints the human-readable report and builds the result for
// the metric list defs.
func (r *report) finish(defs []metricDef) result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var absent []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.wrong = append(r.wrong, fmt.Sprintf("%s is not finite", d.name))
			v = 0
		}
		if !ok {
			absent = append(absent, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(r.out, "%-32s %16.6f %s\n", d.name, v, d.unit)
	}
	if len(absent) > 0 {
		r.notef("0 = layer not exercised by this workload: %s", strings.Join(absent, ", "))
	}
	failures.Lock()
	if failures.n > 0 {
		r.notef("%d failure(s); first: %s", failures.n, strings.Join(failures.first, "; "))
	}
	failures.Unlock()
	for _, w := range r.wrong {
		r.notef("INCORRECT: %s", w)
	}
	for _, n := range r.notes {
		fmt.Fprintf(r.out, "note: %s\n", n)
	}
	res.Correct = r.failed == 0 && len(r.wrong) == 0 && r.attempted > 0
	return res
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built in a git checkout)"
}

func newHTTPClient(nproc int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4 * nproc,
		DisableCompression:  true,
	}}
}

// runners builds the workload's pass runner, plus for the stream
// workload a one-shot runner over the same frames: stream events must
// equal one-shot responses, and both are checked against golden.
func runners(sys *system, rs *requestSet, g *golden, hc *http.Client, nproc int, tr *tracer) (runner, runner) {
	switch sys.w.kind {
	case kindOffline:
		return newOfflineRunner(sys, rs, g, tr), nil
	case kindStream:
		ors := &requestSet{inputs: rs.inputs, labels: rs.labels, order: rs.order}
		rng := splitmix(0)
		ors.encodeOneshot(&rng)
		return newStreamRunner(rs, g, sys.surl, hc, tr), newOneshotRunner(ors, g, sys.url, hc, nproc, nil)
	}
	return newOneshotRunner(rs, g, sys.url, hc, nproc, tr), nil
}

// warmPass runs every runner over the whole request set once, untimed
// but checked.
func warmPass(r *report, ds ...runner) (time.Duration, error) {
	var first time.Duration
	for k, d := range ds {
		if d == nil {
			continue
		}
		el, failed, err := d.pass(make([]int64, d.opsPerPass()))
		if err != nil {
			return 0, fmt.Errorf("warm pass: %w", err)
		}
		r.attempted += d.opsPerPass()
		r.failed += failed
		if k == 0 {
			first = el
		}
	}
	return first, nil
}

// setupSamples times the set-up in fresh child processes.
func setupSamples(cfg config, stderr io.Writer) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupChildren; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
		cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", cfg.w.name, "--models", cfg.models)
		cmd.Stderr = stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		f, _ := strings.CutPrefix(strings.TrimSpace(string(b)), "setup_s ")
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("set-up child printed no setup_s (%q)", b)
		}
		out = append(out, v)
	}
	return out, nil
}

func bench(cfg config, stdout, stderr io.Writer) (result, error) {
	w := cfg.w
	r := &report{out: stdout, metrics: map[string]float64{}}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit())
	if cfg.trace {
		return benchTraced(cfg, r)
	}

	setups, err := setupSamples(cfg, stderr)
	if err != nil {
		return result{}, err
	}
	sys, err := setUp(w, cfg.models, cfg.nproc, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	setups = append(setups, sys.elapsed.Seconds())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.metrics["setup_s"] = median(setups)
	r.metrics["heap_mb"] = float64(ms.HeapAlloc) / 1e6
	r.notef("setup_s samples %v (median of %d fresh processes)", setups, len(setups))

	rs := buildRequests(w, cfg.seed, cfg.nproc)
	g := computeGolden(sys.model, sys.run, w.engine, rs.inputs, cfg.nproc)
	hc := newHTTPClient(cfg.nproc)
	defer hc.CloseIdleConnections()
	d, extra := runners(sys, rs, g, hc, cfg.nproc, nil)
	est, err := warmPass(r, d, extra)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	win, err := runWindow(d, cfg.seconds, est, nil)
	if err != nil {
		return result{}, err
	}
	r.attempted += win.ops
	r.failed += win.failed
	if sys.gw != nil {
		// a gateway retry means an attempt failed, even if the client
		// still got its answer
		if n := int(sys.gw.Snapshot().Retries); n > 0 {
			r.failed += n
			r.notef("%d gateway retries counted as failed", n)
		}
	}

	r.metrics["samples_per_s"] = float64(win.ops*opSamples(w)) / win.elapsed.Seconds()
	// mean_ms, not the median: the host's speed switches between states
	// that last tens of seconds, and the median of a window that holds
	// two of them jumps to whichever holds more requests, while the mean
	// moves with their shares.
	lat := msSorted(win.lat)
	r.metrics["mean_ms"] = mean(lat)
	p50, _ := percentile(lat, 0.50)
	p99s := blockP99s(win.lat, d.opsPerPass())
	if len(p99s) == 0 {
		r.wrong = append(r.wrong, fmt.Sprintf("window holds no block of %d operations for p99_ms", blockOps))
	} else {
		r.metrics["p99_ms"] = median(p99s)
	}
	if w.kind == kindOffline {
		r.notef("mean_ms/p99_ms time one core.Evaluate call over %d samples", evalBatch)
	}
	r.metrics["ok_ratio"] = float64(r.attempted-r.failed) / float64(r.attempted)
	q := g.quality(rs.labels)
	r.metrics["accuracy"], r.metrics["spikes_per_sample"], r.metrics["latency_steps"] = q.accuracy, q.spikes, q.steps
	r.notef("window: %d passes, %d timed operations, %.3f s; mean_ms and the median (%.6f ms) over all %d, p99_ms the median of %d block p99s %.3f",
		win.passes, win.ops, win.elapsed.Seconds(), p50, len(lat), len(p99s), p99s)
	r.notef("predictions digest %016x", g.digest())
	r.notef("pass time min/median/max %s", passSpread(win.passTimes))
	return r.finish(endToEnd), nil
}

// blockOps is the fewest operations in a p99 block, so each block's
// nearest-rank p99 has at least ten samples beyond it.
const blockOps = 1000

// blockP99s splits a window's latencies (ns, in pass order) into blocks
// of whole passes holding at least blockOps operations and returns each
// full block's p99 in ms. p99_ms is their median: a host stall that
// slows one block does not set the run's tail, while a tail that every
// block shows does.
func blockP99s(lat []int64, perPass int) []float64 {
	per := (blockOps + perPass - 1) / perPass * perPass
	var out []float64
	for lo := 0; lo+per <= len(lat); lo += per {
		if v, ok := percentile(msSorted(lat[lo:lo+per]), 0.99); ok {
			out = append(out, v)
		}
	}
	return out
}

// msSorted converts ns latencies to ms, sorted ascending.
func msSorted(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// passSpread summarizes a window's pass times: host noise shows here.
func passSpread(ts []time.Duration) string {
	v := make([]float64, len(ts))
	for i, t := range ts {
		v[i] = t.Seconds()
	}
	s := sortedCopy(v)
	return fmt.Sprintf("%.3f/%.3f/%.3f s", s[0], median(v), s[len(s)-1])
}

// opSamples is how many samples one timed operation carries.
func opSamples(w *workload) int {
	if w.kind == kindOffline {
		return evalBatch
	}
	return 1
}

// counters are the serve, gateway and runtime totals a traced window
// reads before and after.
type counters struct {
	completed, latencyPath, rejected, expired, failed uint64
	gw                                                gateway.Snapshot
	mem                                               runtime.MemStats
}

func readCounters(sys *system) counters {
	var c counters
	for _, reg := range sys.regs {
		for _, m := range reg.Snapshot().Models {
			c.completed += m.Completed
			c.latencyPath += m.LatencyPathTotal
			c.rejected += m.Rejected
			c.expired += m.Expired
			c.failed += m.Failed
		}
	}
	if sys.gw != nil {
		c.gw = sys.gw.Snapshot()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// untracedWindow sets the workload up without a tracer, so no engine
// decorator, handler wrapper or span clock is in place, and times a
// window of the given length after a warm pass. It returns the window
// and the golden predictions, and closes the system before returning.
func untracedWindow(cfg config, rs *requestSet, hc *http.Client, seconds float64, r *report) (window, *golden, error) {
	sys, err := setUp(cfg.w, cfg.models, cfg.nproc, nil)
	if err != nil {
		return window{}, nil, fmt.Errorf("untraced set-up: %w", err)
	}
	defer hc.CloseIdleConnections()
	defer sys.close()
	g := computeGolden(sys.model, sys.run, cfg.w.engine, rs.inputs, cfg.nproc)
	d, extra := runners(sys, rs, g, hc, cfg.nproc, nil)
	est, err := warmPass(r, d, extra)
	if err != nil {
		return window{}, nil, err
	}
	runtime.GC()
	win, err := runWindow(d, seconds, est, nil)
	return win, g, err
}

func benchTraced(cfg config, r *report) (result, error) {
	w := cfg.w
	rs := buildRequests(w, cfg.seed, cfg.nproc)
	hc := newHTTPClient(cfg.nproc)
	defer hc.CloseIdleConnections()

	// Half the time untraced, on an uninstrumented system, then half
	// traced: the throughput difference is the whole tracing cost,
	// wrappers included.
	half := cfg.seconds / 2
	off, g, err := untracedWindow(cfg, rs, hc, half, r)
	if err != nil {
		return result{}, err
	}

	tr := newTracer(1 << 19)
	sys, err := setUp(w, cfg.models, cfg.nproc, tr)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer sys.close()
	for name, v := range sys.phases {
		r.metrics[name] = v
	}
	r.notef("traced set-up %.3f s; the timed calls above cover %.3f s of it", sys.elapsed.Seconds(), sumValues(sys.phases))
	// The traced set-up runs Prepare's steps one by one; it must predict
	// exactly what the untraced, experiments.Prepare set-up predicts.
	if err := computeGolden(sys.model, sys.run, w.engine, rs.inputs, cfg.nproc).equal(g); err != nil {
		r.wrong = append(r.wrong, "traced set-up predicts differently from the untraced one: "+err.Error())
	}

	d, extra := runners(sys, rs, g, hc, cfg.nproc, tr)
	est, err := warmPass(r, d, extra)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	before := readCounters(sys)
	tr.start()
	on, err := runWindow(d, half, est, tr)
	spans, dropped := tr.stop()
	if err != nil {
		return result{}, err
	}
	after := readCounters(sys)
	for _, win := range []window{off, on} {
		r.attempted += win.ops
		r.failed += win.failed
	}
	if dropped > 0 {
		r.wrong = append(r.wrong, fmt.Sprintf("%d spans dropped: trace buffer too small", dropped))
	}

	offRate := float64(off.ops) / off.elapsed.Seconds()
	onRate := float64(on.ops) / on.elapsed.Seconds()
	r.metrics["trace.overhead_pct"] = 100 * (1 - onRate/offRate)
	r.notef("tracing overhead: %.1f ops/s on an uninstrumented system vs %.1f traced (end-to-end metrics never come from a traced window)", offRate, onRate)

	p := analyzeSpans(w.kind, spans, rs)
	for k, v := range p.metrics {
		r.metrics[k] = v
	}
	if w.kind != kindOffline {
		r.metrics["trace.sum_residual_us"] = p.residual
		names := make([]string, 0, len(p.partsUS))
		for k := range p.partsUS {
			names = append(names, k)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%.1f", k, p.partsUS[k])
		}
		within := math.Abs(p.residual) <= sumTolerance*p.p50us
		r.notef("sum of parts: traced p50 %.1f us =%s + residual %.1f us (%.1f%%; within %.0f%% tolerance: %v)",
			p.p50us, b.String(), p.residual, 100*p.residual/p.p50us, 100*sumTolerance, within)
	}
	if w.kind == kindStream {
		r.notef("stream client: median wait in EventDecoder.Next %.1f us", p.decodeWaitUS)
	}
	if w.kind == kindFleet {
		r.notef("the gateway forwards no request id: gateway and backend spans are joined in aggregate, not per request")
	}

	// layer counters over the traced window
	passes := float64(on.passes)
	r.metrics["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / passes
	if w.kind == kindOffline {
		samples := float64(on.ops * evalBatch)
		r.metrics["core.alloc_bytes_per_sample"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / samples
		r.metrics["core.gc_cycles"] = float64(after.mem.NumGC-before.mem.NumGC) / passes
	} else {
		if n := after.completed - before.completed; n > 0 {
			r.metrics["serve.latency_path_share"] = float64(after.latencyPath-before.latencyPath) / float64(n)
		}
		if share := r.metrics["serve.latency_path_share"]; w.kind != kindStream && share != 1 {
			r.wrong = append(r.wrong, fmt.Sprintf("serve.latency_path_share %v: one-shot requests left the latency path", share))
		}
		r.metrics["serve.rejected"] = float64(after.rejected - before.rejected)
		r.metrics["serve.expired"] = float64(after.expired - before.expired)
		r.metrics["serve.failed"] = float64(after.failed - before.failed)
		dec, enc, ev := wireTimes(rs.inputs, len(g.stage[0]))
		r.metrics["wire.decode_ns"], r.metrics["wire.encode_ns"] = dec, enc
		if w.kind == kindStream {
			r.metrics["wire.stream_event_ns"] = ev
			r.metrics["stream.retries"] = float64(d.(*streamRunner).retries.Load())
		}
		r.metrics["wire.bytes_per_request.json"], r.metrics["wire.bytes_per_request.binary"] = bodyBytes(rs)
	}
	if w.kind == kindFleet {
		r.metrics["gateway.hedges_fired"] = float64(after.gw.HedgesFired - before.gw.HedgesFired)
		r.metrics["gateway.hedges_won"] = float64(after.gw.HedgesWon - before.gw.HedgesWon)
		r.metrics["gateway.retries"] = float64(after.gw.Retries - before.gw.Retries)
	}

	q := g.quality(rs.labels)
	for s, v := range q.stageSpikes {
		r.metrics[fmt.Sprintf("core.spikes.stage%d", s)] = v
	}
	if w.engine == core.EngineEvent {
		r.metrics["core.early_exit_share"] = q.earlyExit
		r.metrics["core.steps_saved_per_sample"] = q.stepsSaved
		r.metrics["core.events_saved_per_sample"] = q.eventsSaved
	}
	for name, v := range engineTimes(sys.model, sys.run, rs.inputs) {
		r.metrics["core.infer_us."+name] = v
	}

	r.notef("traced window: %d passes, %d operations, %d spans; predictions digest %016x", on.passes, on.ops, len(spans), g.digest())
	return r.finish(perLayer), nil
}

func sumValues(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

// bodyBytes is the mean one-shot request body size per wire format
// (the stream lane sends binary frames only).
func bodyBytes(rs *requestSet) (jsonB, binB float64) {
	if rs.bodies == nil {
		t := 0
		for _, f := range rs.frames {
			t += len(f)
		}
		return 0, float64(t) / float64(len(rs.frames))
	}
	var nj, nb, tj, tb int
	for i, b := range rs.bodies {
		if rs.binary[i] {
			nb, tb = nb+1, tb+len(b)
		} else {
			nj, tj = nj+1, tj+len(b)
		}
	}
	return float64(tj) / float64(nj), float64(tb) / float64(nb)
}
