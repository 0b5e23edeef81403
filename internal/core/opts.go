package core

import (
	"fmt"

	"repro/internal/fault"
)

// EngineKind selects the execution engine behind InferOne/InferMany.
type EngineKind int

const (
	// EngineClocked sweeps every neuron against the threshold at every
	// step — the reference engine the other two are checked against.
	EngineClocked EngineKind = iota
	// EngineEvent processes analytically predicted fire events instead
	// of sweeping steps. Results are bit-identical to EngineClocked
	// (pinned by property tests); with RunConfig.EarlyExit it
	// additionally stops the output window early once the winner is
	// provably undominated, which only guarantees the argmax. It is the
	// latency-optimal single-sample path.
	EngineEvent
	// EngineQuant runs the clocked pipeline on int8 structure-of-arrays
	// scatter plans with int32 accumulators (internal/core/quant.go):
	// weights are quantized to each stage's 8-bit dynamic fixed-point
	// format, zero-quantized synapses are dropped from the plan, and
	// potentials stay in integer units until the output stage's single
	// rescale. Predictions agree with EngineClocked up to quantization
	// (the agreement rate is pinned by TestQuantEngineFixtureParity);
	// a model whose integer headroom cannot fit int32 accumulators
	// falls back to EngineClocked. RunConfig.EarlyExit is ignored.
	EngineQuant
)

// InferOpts carries the execution options shared by every inference
// entry point: the scratch arena, per-sample fault streams, the worker
// pool, and the engine choice. The zero value means "fresh scratch, no
// faults, sequential, clocked" and reproduces Infer exactly.
type InferOpts struct {
	// Scratch is the reusable working set; results alias it (see
	// InferScratch). Nil allocates a fresh single-use scratch.
	Scratch *InferScratch
	// Faults holds one per-sample fault stream per input for InferMany
	// (nil entries inject nothing); nil injects nothing. InferOne takes
	// its single stream in RunConfig.Faults instead and panics when
	// this field is set.
	Faults []*fault.Stream
	// Pool shards InferMany's per-sample loop across the pool's workers,
	// each on its own scratch, for every engine (bit-identical at any
	// worker count). When set it replaces Scratch; a single-worker or
	// closed pool runs the loop sequentially on its first worker's
	// scratch. Ignored by InferOne.
	Pool *Pool
	// Engine selects the execution engine (default EngineClocked).
	Engine EngineKind
}

// InferOne runs one input (flattened [C,H,W], values in [0,1]) through
// the T2FSNN pipeline on the selected engine. It is the canonical
// single-sample entry point; Infer is a thin wrapper over it.
//
// The sample's fault stream travels in cfg.Faults; opts.Faults (the
// per-sample slice of InferMany) must be nil.
func (m *Model) InferOne(input []float64, cfg RunConfig, opts InferOpts) Result {
	if opts.Faults != nil {
		panic("core: InferOne takes the sample's fault stream in cfg.Faults, not opts.Faults")
	}
	return m.inferBody(m.prepare(opts.Scratch), input, cfg, opts.Engine)
}

// InferMany runs a batch of inputs and returns one Result per input,
// each bit-identical to InferOne(inputs[i], cfg with Faults=faults[i])
// on the same engine: it is the same per-sample engine body run in a
// loop, sharded over opts.Pool's workers when the pool has several.
//
// Per-sample fault streams travel in opts.Faults (nil, or one entry per
// input); cfg.Faults must be nil. Results alias the scratch (or pool)
// arenas per the usual contract.
func (m *Model) InferMany(inputs [][]float64, cfg RunConfig, opts InferOpts) []Result {
	if cfg.Faults != nil {
		panic("core: InferMany takes per-sample fault streams in opts.Faults, not cfg.Faults")
	}
	if opts.Faults != nil && len(opts.Faults) != len(inputs) {
		panic(fmt.Sprintf("core: %d fault streams for %d inputs", len(opts.Faults), len(inputs)))
	}
	if opts.Pool != nil {
		return opts.Pool.inferMany(m, inputs, cfg, opts.Faults, opts.Engine)
	}
	sc := m.prepare(opts.Scratch)
	res := sc.takeResults(len(inputs))
	m.inferRange(sc, inputs, cfg, opts.Faults, opts.Engine, res)
	return res
}

// prepare readies a scratch for one top-level call: grown to fit m with
// its result arenas rewound, or a fresh one when sc is nil.
func (m *Model) prepare(sc *InferScratch) *InferScratch {
	if sc == nil {
		return NewInferScratch(m)
	}
	sc.ensure(m)
	sc.reset()
	return sc
}

// inferRange runs the engine body once per input on a prepared scratch,
// writing res[i] for inputs[i] with faults[i] (when faults is non-nil).
// Every Result stays valid until the next top-level call on sc.
func (m *Model) inferRange(sc *InferScratch, inputs [][]float64, cfg RunConfig, faults []*fault.Stream, kind EngineKind, res []Result) {
	for i, input := range inputs {
		c := cfg
		if faults != nil {
			c.Faults = faults[i]
		}
		res[i] = m.inferBody(sc, input, c, kind)
	}
}

// inferBody runs one sample on the selected engine against a prepared
// scratch without rewinding its arenas.
func (m *Model) inferBody(sc *InferScratch, input []float64, cfg RunConfig, kind EngineKind) Result {
	switch kind {
	case EngineEvent:
		return m.inferEventBody(sc, input, cfg)
	case EngineQuant:
		return m.inferQuantBody(sc, input, cfg)
	}
	return m.inferClockedBody(sc, input, cfg)
}
