package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// modelName is the name every workload's model is registered under.
const modelName = "m"

// system is one workload's program, set up in-process and serving.
type system struct {
	w      *workload
	params experiments.Params
	model  *core.Model
	run    core.RunConfig

	pool *core.Pool        // offline
	regs []*serve.Registry // one-shot and stream: one; fleet: two
	gw   *gateway.Gateway  // fleet
	url  string            // one-shot inference URL (registry or gateway)
	surl string            // stream session URL

	servers []*http.Server
	serving sync.WaitGroup // one per Serve goroutine

	elapsed time.Duration      // whole set-up
	phases  map[string]float64 // seconds per set-up call (traced set-up only)
}

// errWouldTrain stops experiments.Prepare before it trains: the
// benchmark measures the committed weights, and a Prepare that trains
// would take minutes and write into the weight cache.
var errWouldTrain = errors.New("experiments.Prepare would train instead of loading cached weights (is models/ complete?)")

// trainGuard is Prepare's log: it accepts only the "loaded cached
// weights" line and panics with errWouldTrain on anything else, which
// Prepare logs just before it would start training.
type trainGuard struct{ loaded bool }

func (g *trainGuard) Write(p []byte) (int, error) {
	if !bytes.HasPrefix(p, []byte("loaded cached weights")) {
		panic(errWouldTrain)
	}
	g.loaded = true
	return len(p), nil
}

// prepare is experiments.Prepare that fails instead of training.
func prepare(p experiments.Params, models string) (s *experiments.Setup, err error) {
	g := &trainGuard{}
	defer func() {
		if r := recover(); r != nil {
			if r != errWouldTrain {
				panic(r)
			}
			s, err = nil, errWouldTrain
		}
	}()
	s, err = experiments.Prepare(p, models, g)
	if err == nil && !g.loaded {
		err = errWouldTrain
	}
	return s, err
}

// preparePieces performs experiments.Prepare's steps one public call at
// a time so the traced run can time each: dataset generation, weight
// load, conversion and the DNN's test accuracy. The run checks that the
// result predicts exactly what Prepare's does.
func preparePieces(p experiments.Params, models string, phase func(string, time.Time)) (*experiments.Setup, error) {
	t := time.Now()
	cfg := dataset.Config{Train: p.TrainN, Test: p.TestN, Seed: p.Seed}
	var train, test *dataset.Dataset
	if p.Dataset == "cifar100" {
		train, test = dataset.CIFAR100Like(cfg)
	} else {
		train, test = dataset.MNISTLike(cfg)
	}
	phase("dataset.gen_s", t)

	t = time.Now()
	shape := train.SampleShape()
	arch := dnn.ArchConfig{
		InC: shape[0], InH: shape[1], InW: shape[2],
		Classes: p.Classes, WidthDiv: p.WidthDiv, FCWidth: p.FCWidth,
		BatchNorm: true, Pool: dnn.AvgPool,
	}
	rng := tensor.NewRNG(p.Seed + 100)
	var net *dnn.Network
	if p.Dataset == "mnist" {
		net = dnn.BuildLeNet(arch, rng)
	} else {
		net = dnn.BuildVGG9(arch, rng)
	}
	key := fmt.Sprintf("%s-%d-%d-%d-%d", p.Dataset, p.TrainN, p.Epochs, p.WidthDiv, p.Seed)
	f, err := os.Open(filepath.Join(models, key+".gob"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errWouldTrain, err)
	}
	err = net.Load(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errWouldTrain, err)
	}
	phase("dnn.load_s", t)

	t = time.Now()
	calibN := min(train.N(), 500)
	sampleLen := shape[0] * shape[1] * shape[2]
	calib := tensor.FromSlice(train.X.Data[:calibN*sampleLen], append([]int{calibN}, shape...)...)
	conv, err := convert.Convert(net, convert.Options{Calibration: calib, Percentile: 99.9})
	if err != nil {
		return nil, err
	}
	phase("convert.convert_s", t)

	t = time.Now()
	acc := dnn.Evaluate(net, test.X, test.Labels, 64)
	phase("dnn.eval_s", t)

	return &experiments.Setup{
		Params: p, DNN: net, Conv: conv,
		TrainX: train.X, TrainY: train.Labels, TestX: test.X, TestY: test.Labels,
		DNNAcc: acc,
	}, nil
}

// buildModel makes the workload's served model from a prepared setup:
// the GO kernels for the paper's headline T2FSNN+GO+EF row, else the
// empirically initialized kernels snnserve serves by default.
func buildModel(w *workload, s *experiments.Setup) (*core.Model, error) {
	if w.useGO {
		_, m, _, err := experiments.BuildModels(s)
		return m, err
	}
	p := s.Params
	return core.NewModel(s.Conv.Net, p.T, p.TauInit, p.TdInit)
}

// runConfig is the workload's pipeline configuration: early firing as
// snnserve serves it, plus early exit on the event engine.
func runConfig(w *workload, p experiments.Params) core.RunConfig {
	return core.RunConfig{EarlyFire: true, EFStart: p.EFStart(), EarlyExit: w.engine == core.EngineEvent}
}

// newEngine is the serving workloads' engine: event for the stream
// workload, quant for the one-shot ones.
func newEngine(w *workload, m *core.Model, run core.RunConfig) serve.Engine {
	if w.engine == core.EngineEvent {
		return &serve.EventEngine{Model: m, Run: run}
	}
	return &serve.QuantEngine{Model: m, Run: run}
}

// setUp builds and starts the workload's program. With a tracer the
// set-up runs call by call with each call timed, and engines and
// handlers are wrapped to record spans; without one it uses
// experiments.Prepare and the program is untouched.
func setUp(w *workload, models string, nproc int, tr *tracer) (*system, error) {
	start := time.Now()
	sys := &system{w: w, phases: map[string]float64{}}
	phase := func(name string, t time.Time) { sys.phases[name] += time.Since(t).Seconds() }
	p, err := experiments.ParamsFor(w.dataset, experiments.Tiny)
	if err != nil {
		return nil, err
	}
	sys.params = p
	var s *experiments.Setup
	if tr == nil {
		s, err = prepare(p, models)
	} else {
		s, err = preparePieces(p, models, phase)
	}
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if sys.model, err = buildModel(w, s); err != nil {
		return nil, err
	}
	if w.useGO {
		phase("kernel.go_s", t)
	}
	sys.run = runConfig(w, p)

	switch w.kind {
	case kindOffline:
		t = time.Now()
		sys.pool = core.NewPool(core.ParallelOpts{Workers: nproc})
		sys.pool.Warm(sys.model, [][]float64{make([]float64, sys.model.Net.InLen)}, sys.run)
		phase("core.warm_s", t)
	case kindOneshot, kindStream:
		if sys.url, err = sys.startRegistry(tr, phase); err != nil {
			sys.close()
			return nil, err
		}
		sys.surl = sys.url + "/v1/models/" + modelName + "/stream"
		sys.url += "/v1/models/" + modelName + "/infer"
	case kindFleet:
		var backends []string
		for i := 0; i < 2; i++ {
			u, err := sys.startRegistry(tr, phase)
			if err != nil {
				sys.close()
				return nil, err
			}
			backends = append(backends, u)
		}
		t = time.Now()
		if err := sys.startGateway(backends, tr); err != nil {
			sys.close()
			return nil, err
		}
		phase("gateway.ready_s", t)
	}
	sys.elapsed = time.Since(start)
	return sys, nil
}

// listen serves h on a loopback port and returns its base URL.
func (sys *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	sys.servers = append(sys.servers, hs)
	sys.serving.Add(1)
	go func() {
		defer sys.serving.Done()
		hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startRegistry serves the model from its own engine in a new Registry
// in latency mode, as `snnserve -engine quant|event -mode latency`
// would, and warms it.
func (sys *system) startRegistry(tr *tracer, phase func(string, time.Time)) (string, error) {
	t := time.Now()
	eng := newEngine(sys.w, sys.model, sys.run)
	if tr != nil {
		eng = traceEngine(eng, tr)
	}
	reg := serve.NewRegistry(serve.RegistryOptions{})
	sys.regs = append(sys.regs, reg)
	if _, err := reg.Add(modelName, eng, serve.Options{Workers: 1, DefaultMode: serve.ModeLatency}); err != nil {
		return "", err
	}
	h := reg.Handler()
	if tr != nil {
		h = traceHandler(h, tr, spanHandler)
	}
	u, err := sys.listen(h)
	if err != nil {
		return "", err
	}
	phase("serve.start_s", t)
	t = time.Now()
	reg.Warm()
	phase("core.warm_s", t)
	return u, nil
}

// startGateway puts a gateway in front of backends and waits until it
// answers /readyz.
func (sys *system) startGateway(backends []string, tr *tracer) error {
	gw, err := gateway.New(gateway.Options{Backends: backends})
	if err != nil {
		return err
	}
	sys.gw = gw
	h := gw.Handler()
	if tr != nil {
		h = traceHandler(h, tr, spanGateway)
	}
	base, err := sys.listen(h)
	if err != nil {
		return err
	}
	sys.url = base + "/v1/models/" + modelName + "/infer"
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops everything setUp started and waits for it.
func (sys *system) close() {
	for _, r := range sys.regs {
		r.BeginDrain()
	}
	if sys.gw != nil {
		sys.gw.BeginDrain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(sys.servers) - 1; i >= 0; i-- {
		sys.servers[i].Shutdown(ctx)
	}
	sys.serving.Wait()
	if sys.gw != nil {
		sys.gw.Close()
	}
	for _, r := range sys.regs {
		r.Close()
	}
	sys.pool.Close()
}
