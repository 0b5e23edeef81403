package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/tensor"
)

// With faults disabled the injection hooks must be invisible: a nil
// stream and a zero-config stream both reproduce the seed inference
// bit for bit (predictions, spike counts, spike times, potentials).
func TestInferFaultHooksAreNoOpWhenDisabled(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 123}) // all intensities zero
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
		cfg.CollectSpikeTimes = true
		for i := 0; i < 10; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			plain := m.Infer(in, cfg)
			faulted := cfg
			faulted.Faults = inj.Sample(i)
			if faulted.Faults == nil {
				t.Fatal("zero-config injector must still produce a stream (the hooks run)")
			}
			hooked := m.Infer(in, faulted)
			if plain.Pred != hooked.Pred || plain.TotalSpikes != hooked.TotalSpikes || plain.Latency != hooked.Latency {
				t.Fatalf("sample %d: zero-fault stream changed the result: pred %d/%d spikes %d/%d",
					i, plain.Pred, hooked.Pred, plain.TotalSpikes, hooked.TotalSpikes)
			}
			for j := range plain.Potentials {
				if plain.Potentials[j] != hooked.Potentials[j] {
					t.Fatalf("sample %d: potential %d differs: %v vs %v", i, j, plain.Potentials[j], hooked.Potentials[j])
				}
			}
			for b := range plain.SpikeTimes {
				if len(plain.SpikeTimes[b]) != len(hooked.SpikeTimes[b]) {
					t.Fatalf("sample %d boundary %d: spike count differs", i, b)
				}
				for k := range plain.SpikeTimes[b] {
					if plain.SpikeTimes[b][k] != hooked.SpikeTimes[b][k] {
						t.Fatalf("sample %d boundary %d: spike time %d differs", i, b, k)
					}
				}
			}
		}
	}
}

func evalSubset(t *testing.T, m *Model, n int, opts EvalOptions) EvalResult {
	t.Helper()
	x := tensor.FromSlice(fixture.x.Data[:n*256], n, 256)
	res, err := Evaluate(m, x, fixture.labels[:n], opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Fault streams are pure functions of (seed, sample), so a faulted
// evaluation must not depend on the worker count.
func TestEvaluateFaultedIndependentOfWorkers(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 7, Drop: 0.15, Jitter: 2, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	seq := evalSubset(t, m, 40, EvalOptions{Faults: inj})
	for _, workers := range []int{4, -1, 3} { // -1: one per GOMAXPROCS
		pool := NewPool(ParallelOpts{Workers: workers})
		par := evalSubset(t, m, 40, EvalOptions{Faults: inj, Pool: pool})
		pool.Close()
		if seq.Accuracy != par.Accuracy || seq.AvgSpikes != par.AvgSpikes {
			t.Fatalf("workers=%d changed faulted result: %.4f/%.0f vs %.4f/%.0f",
				workers, seq.Accuracy, seq.AvgSpikes, par.Accuracy, par.AvgSpikes)
		}
	}
}

// Dropping every spike must collapse TTFS to silence, not crash.
func TestEvaluateTotalDropCollapses(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 1, Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := evalSubset(t, m, 20, EvalOptions{Faults: inj})
	if res.AvgSpikes != 0 {
		t.Fatalf("drop=1 left %.1f spikes per sample", res.AvgSpikes)
	}
	clean := evalSubset(t, m, 20, EvalOptions{})
	if res.Accuracy >= clean.Accuracy {
		t.Fatalf("drop=1 accuracy %.2f not below clean %.2f", res.Accuracy, clean.Accuracy)
	}
}

// A panicking sample becomes an error record; the sweep survives and
// the sample counts as misclassified.
func TestEvaluateRecoversPanickingSamples(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	// sabotage a hidden stage's weights so Scatter indexes out of range
	broken := &Model{Net: fault.PerturbWeights(m.Net, 0.0001, 1), K: m.K, T: m.T} // deep-enough copy of stages
	st := &broken.Net.Stages[len(broken.Net.Stages)-1]
	st.W = tensor.FromSlice(append([]float64(nil), st.W.Data[:4]...), 4)
	pool := NewPool(ParallelOpts{Workers: 2})
	defer pool.Close()
	res, err := Evaluate(broken, tensor.FromSlice(fixture.x.Data[:10*256], 10, 256),
		fixture.labels[:10], EvalOptions{Pool: pool})
	if err != nil {
		t.Fatalf("sweep died instead of recording sample errors: %v", err)
	}
	if len(res.Errors) != 10 {
		t.Fatalf("%d error records, want 10", len(res.Errors))
	}
	if res.Accuracy != 0 {
		t.Fatalf("failed samples counted as correct: accuracy %.2f", res.Accuracy)
	}
	if res.Errors[0].Index != 0 || res.Errors[0].Err == "" {
		t.Fatalf("malformed error record: %+v", res.Errors[0])
	}
}

func TestEvaluateContextCancellation(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	x := tensor.FromSlice(fixture.x.Data[:10*256], 10, 256)
	if _, err := EvaluateContext(ctx, m, x, fixture.labels[:10], EvalOptions{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
	pool := NewPool(ParallelOpts{Workers: 4})
	defer pool.Close()
	if _, err := EvaluateContext(ctx, m, x, fixture.labels[:10], EvalOptions{Pool: pool}); err == nil {
		t.Fatal("cancelled context accepted (parallel path)")
	}
}

// A pool with more workers than samples must engage only as many as
// there are samples, and leave no goroutine behind once closed.
func TestEvaluateWorkerClamp(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	before := runtime.NumGoroutine()
	pool := NewPool(ParallelOpts{Workers: 64})
	res := evalSubset(t, m, 3, EvalOptions{Pool: pool})
	pool.Close()
	if res.N != 3 {
		t.Fatalf("N = %d, want 3", res.N)
	}
	seq := evalSubset(t, m, 3, EvalOptions{})
	if res.Accuracy != seq.Accuracy || res.AvgSpikes != seq.AvgSpikes {
		t.Fatal("clamped parallel run differs from sequential")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
