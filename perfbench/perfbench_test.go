package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},   // rank 990, 10 beyond
		{999, 0.99, false},   // rank 990, 9 beyond
		{120, 0.99, false},   // the second-largest value
		{20, 0.50, true},     // rank 10, 10 beyond
		{19, 0.50, false},    // rank 10, 9 beyond
		{0, 0.50, false},     // nothing to report
		{5000, 0.99, true},   // rank 4950
		{1010, 0.999, false}, // rank 1009, 1 beyond
	} {
		vals := make([]float64, c.n)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		v, ok := percentile(vals, c.q)
		if ok != c.want {
			t.Errorf("n=%d q=%v: reportable %v, want %v", c.n, c.q, ok, c.want)
		}
		if rank := math.Ceil(c.q * float64(c.n)); c.n > 0 && v != rank {
			t.Errorf("n=%d q=%v: value %v, want the sample of rank %v", c.n, c.q, v, rank)
		}
	}
	if v, _ := percentile([]float64{1, 2, 3, 4}, 0.5); v != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", v)
	}
}

func TestBlockP99IgnoresOneSlowBlock(t *testing.T) {
	const perPass = 500 // two passes per block
	var lat []int64
	for b := 0; b < 5; b++ {
		for i := 0; i < 2*perPass; i++ {
			ns := int64(1e6 + i*1000) // block p99: rank 990 of 1..1000 steps
			if b == 2 {
				ns *= 5 // a host stall slows the whole block
			}
			lat = append(lat, ns)
		}
	}
	lat = append(lat, make([]int64, perPass)...) // a partial block is left out
	p99s := blockP99s(lat, perPass)
	if len(p99s) != 5 {
		t.Fatalf("%d blocks, want 5", len(p99s))
	}
	if got, want := median(p99s), (1e6+989*1000)/1e6; got != want {
		t.Errorf("median block p99 %v ms, want %v", got, want)
	}
	if p99s[2] <= p99s[0] {
		t.Errorf("the slow block's p99 %v is not above the others' %v", p99s[2], p99s[0])
	}
}

func TestRequestSetDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a := buildRequests(w, 7, 2).sentBytes()
			b := buildRequests(w, 7, 2).sentBytes()
			c := buildRequests(w, 8, 2).sentBytes()
			if !bytes.Equal(a, b) {
				t.Fatal("same seed, different bytes")
			}
			if bytes.Equal(a, c) {
				t.Fatal("different seeds, same bytes")
			}
		})
	}
}

func TestRequestSetMixesFormatsEvenly(t *testing.T) {
	rs := buildRequests(&workloads[1], 3, 2)
	bin := 0
	for _, b := range rs.binary {
		if b {
			bin++
		}
	}
	if bin*2 != len(rs.binary) {
		t.Fatalf("%d of %d requests binary, want half", bin, len(rs.binary))
	}
}

// capabilities lists which optional serve interfaces e implements.
func capabilities(e serve.Engine) [4]bool {
	_, s := e.(serve.SingleEngine)
	_, f := e.(serve.FrameEngine)
	_, d := e.(serve.EngineDescriber)
	_, c := e.(serve.ChunkReporter)
	return [4]bool{s, f, d, c}
}

func TestTraceEngineCapabilityParity(t *testing.T) {
	tr := newTracer(16)
	for _, eng := range []serve.Engine{
		&serve.TTFSEngine{}, &serve.SchemeEngine{}, &serve.EventEngine{}, &serve.QuantEngine{}, fakeEngine{},
	} {
		got, want := capabilities(traceEngine(eng, tr)), capabilities(eng)
		if got != want {
			t.Errorf("%T: traced capabilities %v, engine has %v (single, frame, describer, chunks)", eng, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("traceEngine accepted a capability set it has no decorator for")
		}
	}()
	traceEngine(baseEngine{}, tr)
}

// baseEngine has no optional capability, a set no serve engine has.
type baseEngine struct{}

func (baseEngine) InLen() int                                       { return 1 }
func (baseEngine) Classes() int                                     { return 1 }
func (baseEngine) InferBatch([][]float64, []int) []serve.Prediction { return nil }

func TestSelfTime(t *testing.T) {
	p := span{start: 0, end: 100}
	for _, c := range []struct {
		children []span
		want     int64
	}{
		{nil, 100},
		{[]span{{start: 10, end: 30}}, 80},
		{[]span{{start: 10, end: 30}, {start: 20, end: 50}}, 60}, // overlap counted once
		{[]span{{start: 60, end: 70}, {start: 10, end: 20}}, 80},
		{[]span{{start: -10, end: 10}, {start: 90, end: 120}}, 80}, // clipped to the parent
	} {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("children %v: self %d, want %d", c.children, got, c.want)
		}
	}
}

// fakeEngine answers pred = sample % 3 with fixed counts, except that
// it gets sample wrong wrong.
type fakeEngine struct{ wrong int }

func (fakeEngine) InLen() int   { return 4 }
func (fakeEngine) Classes() int { return 3 }

func (e fakeEngine) InferOne(_ []float64, sample int) serve.Prediction {
	p := sample % 3
	if sample == e.wrong {
		p = (p + 1) % 3
	}
	return serve.Prediction{Pred: p, Latency: 5, TotalSpikes: 7}
}

func (e fakeEngine) InferBatch(inputs [][]float64, samples []int) []serve.Prediction {
	out := make([]serve.Prediction, len(inputs))
	for i := range inputs {
		out[i] = e.InferOne(inputs[i], samples[i])
	}
	return out
}

func (e fakeEngine) InferFrame(in []float64, sample int, _ bool) serve.FrameResult {
	return serve.FrameResult{Prediction: e.InferOne(in, sample), StageSpikes: []int{3, 4}}
}

// fakeSet is a request set of n inputs the fake engine serves, with its
// golden results.
func fakeSet(n int) (*requestSet, *golden) {
	rs := &requestSet{}
	g := &golden{}
	for i := 0; i < n; i++ {
		in := []float64{0, 0.25, 0.5, 1}
		rs.inputs = append(rs.inputs, in)
		rs.labels = append(rs.labels, i%3)
		rs.frames = append(rs.frames, wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: i, Label: -1}, in))
		g.pred = append(g.pred, i%3)
		g.latency = append(g.latency, 5)
		g.spikes = append(g.spikes, 7)
		g.stepsSaved = append(g.stepsSaved, 0)
		g.eventsSaved = append(g.eventsSaved, 0)
		g.earlyExit = append(g.earlyExit, false)
		g.stage = append(g.stage, []int{3, 4})
	}
	rng := splitmix(1)
	rs.order = rng.perm(n)
	rs.encodeOneshot(&rng)
	rs.sessions = [][]int{rs.order[:n/2], rs.order[n/2:]}
	return rs, g
}

// serveFake serves eng from a Registry on loopback, as the workloads do.
func serveFake(t *testing.T, eng serve.Engine, tr *tracer) (*system, string) {
	t.Helper()
	sys := &system{}
	reg := serve.NewRegistry(serve.RegistryOptions{})
	sys.regs = append(sys.regs, reg)
	if _, err := reg.Add(modelName, traceEngine(eng, tr), serve.Options{Workers: 1, DefaultMode: serve.ModeLatency}); err != nil {
		t.Fatal(err)
	}
	u, err := sys.listen(traceHandler(reg.Handler(), tr, spanHandler))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.close)
	return sys, u + "/v1/models/" + modelName
}

func TestCorrectnessCheckCatchesWrongPrediction(t *testing.T) {
	const n = 40
	hc := newHTTPClient(2)
	defer hc.CloseIdleConnections()
	for _, wrong := range []int{-1, 13} {
		rs, g := fakeSet(n)
		tr := newTracer(1 << 12)
		_, url := serveFake(t, fakeEngine{wrong: wrong}, tr)
		want := 0
		if wrong >= 0 {
			want = 1
		}
		for name, d := range map[string]runner{
			"oneshot": newOneshotRunner(rs, g, url+"/infer", hc, 2, tr),
			"stream":  newStreamRunner(rs, g, url+"/stream", hc, tr),
		} {
			tr.start()
			_, failed, err := d.pass(make([]int64, d.opsPerPass()))
			spans, _ := tr.stop()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if failed != want {
				t.Errorf("%s with sample %d wrong: %d failed, want %d", name, wrong, failed, want)
			}
			k := kindOneshot
			if name == "stream" {
				k = kindStream
			}
			if p := analyzeSpans(k, spans, rs); p.p50us <= 0 || p.partsUS["serve.engine_us"] <= 0 {
				t.Errorf("%s: spans did not join: %+v", name, p)
			}
		}
	}
}

func TestCheckEvalComparesEveryAggregate(t *testing.T) {
	_, g := fakeSet(4)
	idx, labels := []int{0, 1, 2, 3}, []int{0, 1, 0, 0} // sample 2 mispredicted
	good := core.EvalResult{N: 4, Accuracy: 0.75, Latency: 5, AvgSpikes: 7, SpikesPerStage: []float64{3, 4}}
	if err := g.checkEval(idx, labels, good); err != nil {
		t.Fatalf("matching result rejected: %v", err)
	}
	for name, mutate := range map[string]func(*core.EvalResult){
		"accuracy": func(r *core.EvalResult) { r.Accuracy = 0.5 },
		"latency":  func(r *core.EvalResult) { r.Latency = 6 },
		"spikes":   func(r *core.EvalResult) { r.AvgSpikes = 7.25 },
		"stage":    func(r *core.EvalResult) { r.SpikesPerStage = []float64{3, 5} },
		"errors":   func(r *core.EvalResult) { r.Errors = []core.SampleError{{Index: 1}} },
	} {
		bad := good
		bad.SpikesPerStage = append([]float64(nil), good.SpikesPerStage...)
		mutate(&bad)
		if err := g.checkEval(idx, labels, bad); err == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json
// and the program's workloads and metric lists in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json may leave a workload out (oneshot-mnist runs by
	// hand), but every one it names must exist.
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
