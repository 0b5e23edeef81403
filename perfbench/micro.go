package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// microSamples is how many of the workload's inputs the single-threaded
// per-call timings use (after one untimed call each).
const microSamples = 64

// engineTimes returns the median single-threaded µs per sample of each
// core engine on the workload's model, run configuration and inputs.
func engineTimes(m *core.Model, run core.RunConfig, inputs [][]float64) map[string]float64 {
	inputs = inputs[:min(len(inputs), microSamples)]
	sc := core.NewInferScratch(m)
	time1 := func(f func(in []float64)) float64 {
		for _, in := range inputs {
			f(in)
		}
		us := make([]float64, len(inputs))
		for k, in := range inputs {
			t := time.Now()
			f(in)
			us[k] = float64(time.Since(t).Nanoseconds()) / 1e3
		}
		return median(us)
	}
	out := map[string]float64{}
	for name, e := range map[string]core.EngineKind{"clocked": core.EngineClocked, "event": core.EngineEvent, "quant": core.EngineQuant} {
		out[name] = time1(func(in []float64) { m.InferOne(in, run, core.InferOpts{Scratch: sc, Engine: e}) })
	}
	// InferAnalytic is the closed form of the pipeline without early
	// firing; it takes no run configuration.
	out["analytic"] = time1(func(in []float64) { m.InferAnalytic(in) })
	return out
}

// wireTimes returns the median ns to decode one request frame, encode
// one response frame, and encode plus decode one stream event, on the
// workload's inputs.
func wireTimes(inputs [][]float64, stages int) (decode, encode, event float64) {
	inputs = inputs[:min(len(inputs), microSamples)]
	frames := make([][]byte, len(inputs))
	for k, in := range inputs {
		frames[k] = wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: k, Label: -1}, in)
	}
	dst := make([]float64, len(inputs[0]))
	buf := make([]byte, 0, 256)
	ev := wire.StreamEvent{Kind: wire.EventFrame, StageSpikes: make([]uint32, stages)}
	var got wire.StreamEvent
	const reps = 64
	per := func(f func(k int)) float64 {
		ns := make([]float64, len(inputs))
		for k := range inputs {
			f(k)
			t := time.Now()
			for r := 0; r < reps; r++ {
				f(k)
			}
			ns[k] = float64(time.Since(t).Nanoseconds()) / reps
		}
		return median(ns)
	}
	decode = per(func(k int) { wire.DecodeRequest(frames[k], dst, len(dst)) })
	encode = per(func(k int) {
		buf = wire.AppendResponse(buf[:0], wire.Response{Pred: k % 10, LatencySteps: 50, TotalSpikes: 4000})
	})
	event = per(func(k int) {
		ev.Seq, ev.Resp.Pred = uint32(k), k%10
		buf = wire.AppendStreamEvent(buf[:0], ev)
		wire.DecodeStreamEvent(buf, &got)
	})
	return decode, encode, event
}
