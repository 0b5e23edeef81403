package main

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/core"
)

// golden holds the direct core.InferOne outcome of every canonical
// sample, computed at set-up with the engine and run configuration the
// workload serves. Every served output is checked against it.
type golden struct {
	pred, latency, spikes   []int
	stepsSaved, eventsSaved []int
	earlyExit               []bool
	stage                   [][]int // per-stage spike counts
}

func computeGolden(m *core.Model, run core.RunConfig, engine core.EngineKind, inputs [][]float64, workers int) *golden {
	n := len(inputs)
	g := &golden{
		pred: make([]int, n), latency: make([]int, n), spikes: make([]int, n),
		stepsSaved: make([]int, n), eventsSaved: make([]int, n),
		earlyExit: make([]bool, n), stage: make([][]int, n),
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := core.NewInferScratch(m)
			for i := w; i < n; i += workers {
				r := m.InferOne(inputs[i], run, core.InferOpts{Scratch: sc, Engine: engine})
				g.pred[i], g.latency[i], g.spikes[i] = r.Pred, r.Latency, r.TotalSpikes
				g.stepsSaved[i], g.eventsSaved[i], g.earlyExit[i] = r.StepsSaved, r.EventsSaved, r.EarlyExit
				g.stage[i] = append([]int(nil), r.Spikes...)
			}
		}(w)
	}
	wg.Wait()
	return g
}

// equal reports the first difference between two golden sets (nil when
// identical): the traced run's set-up must predict exactly what the
// untraced set-up does.
func (g *golden) equal(o *golden) error {
	if len(g.pred) != len(o.pred) {
		return fmt.Errorf("%d vs %d samples", len(g.pred), len(o.pred))
	}
	for i := range g.pred {
		a := outcome{g.pred[i], g.latency[i], g.spikes[i], g.earlyExit[i], g.eventsSaved[i]}
		if err := o.check(i, a); err != nil {
			return err
		}
		if err := o.checkStages(i, g.stage[i]); err != nil {
			return err
		}
	}
	return nil
}

// outcome is the part of a served response that must equal golden.
type outcome struct {
	pred, latency, spikes int
	earlyExit             bool
	eventsSaved           int
}

func (g *golden) check(i int, o outcome) error {
	want := outcome{g.pred[i], g.latency[i], g.spikes[i], g.earlyExit[i], g.eventsSaved[i]}
	if o != want {
		return fmt.Errorf("sample %d: served %+v, core.InferOne gives %+v", i, o, want)
	}
	return nil
}

func (g *golden) checkStages(i int, stages []int) error {
	want := g.stage[i]
	if len(stages) != len(want) {
		return fmt.Errorf("sample %d: %d stage counts, core.InferOne gives %d", i, len(stages), len(want))
	}
	for s := range want {
		if stages[s] != want[s] {
			return fmt.Errorf("sample %d: stage %d fired %d spikes, core.InferOne gives %d", i, s, stages[s], want[s])
		}
	}
	return nil
}

// checkEval verifies one core.Evaluate result over samples idx with
// labels: every aggregate must equal the same sum over the golden
// results, computed in the same order.
func (g *golden) checkEval(idx, labels []int, r core.EvalResult) error {
	if r.N != len(idx) || len(r.Errors) != 0 {
		return fmt.Errorf("evaluate: N=%d errors=%d over %d samples", r.N, len(r.Errors), len(idx))
	}
	correct, maxLat, total := 0, 0, 0.0
	stages := make([]float64, len(r.SpikesPerStage))
	for k, i := range idx {
		if g.pred[i] == labels[k] {
			correct++
		}
		maxLat = max(maxLat, g.latency[i])
		total += float64(g.spikes[i])
		if len(g.stage[i]) != len(stages) {
			return fmt.Errorf("evaluate: %d stages, golden has %d", len(stages), len(g.stage[i]))
		}
		for s, c := range g.stage[i] {
			stages[s] += float64(c)
		}
	}
	n := float64(len(idx))
	if acc := float64(correct) / n; r.Accuracy != acc {
		return fmt.Errorf("evaluate: accuracy %v, golden %v", r.Accuracy, acc)
	}
	if r.Latency != maxLat {
		return fmt.Errorf("evaluate: latency %d, golden %d", r.Latency, maxLat)
	}
	if r.AvgSpikes != total/n {
		return fmt.Errorf("evaluate: spikes %v, golden %v", r.AvgSpikes, total/n)
	}
	for s := range stages {
		if r.SpikesPerStage[s] != stages[s]/n {
			return fmt.Errorf("evaluate: stage %d spikes %v, golden %v", s, r.SpikesPerStage[s], stages[s]/n)
		}
	}
	return nil
}

// quality is the exact count metrics of a request set, from golden
// results (every served output was checked equal to them).
type quality struct {
	accuracy, spikes, steps float64
	stageSpikes             []float64
	earlyExit, stepsSaved   float64 // share, per sample
	eventsSaved             float64
}

func (g *golden) quality(labels []int) quality {
	var q quality
	n := float64(len(g.pred))
	for i := range g.pred {
		if g.pred[i] == labels[i] {
			q.accuracy++
		}
		q.spikes += float64(g.spikes[i])
		q.steps += float64(g.latency[i])
		if g.earlyExit[i] {
			q.earlyExit++
		}
		q.stepsSaved += float64(g.stepsSaved[i])
		q.eventsSaved += float64(g.eventsSaved[i])
		for s, c := range g.stage[i] {
			if s >= len(q.stageSpikes) {
				q.stageSpikes = append(q.stageSpikes, 0)
			}
			q.stageSpikes[s] += float64(c)
		}
	}
	q.accuracy /= n
	q.spikes /= n
	q.steps /= n
	q.earlyExit /= n
	q.stepsSaved /= n
	q.eventsSaved /= n
	for s := range q.stageSpikes {
		q.stageSpikes[s] /= n
	}
	return q
}

// digest fingerprints every golden outcome, so two runs' predictions
// can be compared from their output alone.
func (g *golden) digest() uint64 {
	h := fnv.New64a()
	for i := range g.pred {
		fmt.Fprintln(h, g.pred[i], g.latency[i], g.spikes[i], g.earlyExit[i], g.eventsSaved[i], g.stage[i])
	}
	return h.Sum64()
}
