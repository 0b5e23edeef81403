package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// spanKind names the layer boundary a span was recorded at. Every span
// comes from this package: around calls into the program (engine
// decorator, HTTP handler wrappers, core calls) and around the client's
// own requests. Nothing inside the program is instrumented.
type spanKind uint8

const (
	spanClient  spanKind = iota // one client request, or one stream frame round trip
	spanDecode                  // one client-side stream EventDecoder.Next
	spanGateway                 // the gateway's handler, one-shot route
	spanHandler                 // a registry's handler, one-shot route
	spanEngine                  // one engine call made by the serve layer
	spanCore                    // one core.Evaluate call
)

// requestIDHeader carries the request id from client to the first
// handler. The gateway does not forward it, so backend handler spans
// behind a gateway carry id -1 and are joined in aggregate only.
const requestIDHeader = "X-Request-ID"

type span struct {
	kind       spanKind
	binary     bool  // request on the application/x-t2f wire format
	pass       int32 // window pass the span started in
	id         int64 // request or frame id; -1 when the layer cannot see it
	start, end int64 // ns since the tracer's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in a preallocated buffer and hands them out once
// recording stops; spans beyond the buffer are counted as dropped.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	on      bool
	pass    int32
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// now is the span clock: monotonic ns since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record stores a span that started at start and ends now.
func (t *tracer) record(kind spanKind, id int64, binary bool, start int64) {
	end := t.now()
	t.mu.Lock()
	if t.on {
		if len(t.spans) < cap(t.spans) {
			t.spans = append(t.spans, span{kind: kind, binary: binary, pass: t.pass, id: id, start: start, end: end})
		} else {
			t.dropped++
		}
	}
	t.mu.Unlock()
}

// start clears the buffer and begins recording.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans, t.dropped, t.pass, t.on = t.spans[:0], 0, 0, true
	t.mu.Unlock()
}

// setPass tags spans started from now on with pass p.
func (t *tracer) setPass(p int) {
	t.mu.Lock()
	t.pass = int32(p)
	t.mu.Unlock()
}

// stop ends recording and returns a copy of the spans and the number
// dropped for lack of room.
func (t *tracer) stop() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = false
	return append([]span(nil), t.spans...), t.dropped
}

// selfTime is parent's duration minus the part of it that the union of
// children's intervals covers.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	// insertion sort: a parent has one or two children
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	covered, end := int64(0), parent.start
	for _, v := range ivs {
		lo := max(v.lo, end)
		if v.hi > lo {
			covered += v.hi - lo
			end = v.hi
		}
	}
	return parent.dur() - covered
}

// ---- engine decorator ----

// The serve layer discovers engine capabilities by type assertion, so a
// decorator must implement exactly the optional interfaces the wrapped
// engine does: one more would reroute requests, one fewer would hide a
// path. traceEngine composes one of these pieces per capability.
type (
	tracedBase struct {
		eng serve.Engine
		tr  *tracer
	}
	tracedSingle struct {
		eng serve.SingleEngine
		tr  *tracer
	}
	tracedFrame struct {
		eng serve.FrameEngine
		tr  *tracer
	}
	tracedDesc  struct{ eng serve.EngineDescriber }
	tracedChunk struct{ eng serve.ChunkReporter }
)

func (e *tracedBase) InLen() int   { return e.eng.InLen() }
func (e *tracedBase) Classes() int { return e.eng.Classes() }

func (e *tracedBase) InferBatch(inputs [][]float64, samples []int) []serve.Prediction {
	t := e.tr.now()
	p := e.eng.InferBatch(inputs, samples)
	id := int64(-1)
	if len(samples) == 1 {
		id = int64(samples[0])
	}
	e.tr.record(spanEngine, id, false, t)
	return p
}

func (e tracedSingle) InferOne(input []float64, sample int) serve.Prediction {
	t := e.tr.now()
	p := e.eng.InferOne(input, sample)
	e.tr.record(spanEngine, int64(sample), false, t)
	return p
}

func (e tracedFrame) InferFrame(input []float64, sample int, timeline bool) serve.FrameResult {
	t := e.tr.now()
	r := e.eng.InferFrame(input, sample, timeline)
	e.tr.record(spanEngine, int64(sample), false, t)
	return r
}

func (e tracedDesc) EngineDesc() string      { return e.eng.EngineDesc() }
func (e tracedChunk) ParallelChunks() uint64 { return e.eng.ParallelChunks() }

// traceEngine wraps eng so every engine call records a span keyed by
// the request's sample index, forwarding exactly eng's capability set.
// It knows the capability sets that exist: the clocked and scheme
// engines', the event and quant engines', and the tests' fake engine's.
// Any other set panics, so a new engine shape fails loudly.
func traceEngine(eng serve.Engine, tr *tracer) serve.Engine {
	b := &tracedBase{eng: eng, tr: tr}
	s, hasS := eng.(serve.SingleEngine)
	f, hasF := eng.(serve.FrameEngine)
	d, hasD := eng.(serve.EngineDescriber)
	c, hasC := eng.(serve.ChunkReporter)
	ts, tf, td, tc := tracedSingle{s, tr}, tracedFrame{f, tr}, tracedDesc{d}, tracedChunk{c}
	switch [4]bool{hasS, hasF, hasD, hasC} {
	case [4]bool{false, true, true, true}: // TTFSEngine, SchemeEngine
		return struct {
			*tracedBase
			tracedFrame
			tracedDesc
			tracedChunk
		}{b, tf, td, tc}
	case [4]bool{true, true, true, false}: // EventEngine, QuantEngine
		return struct {
			*tracedBase
			tracedSingle
			tracedFrame
			tracedDesc
		}{b, ts, tf, td}
	case [4]bool{true, true, false, false}: // the tests' fakeEngine
		return struct {
			*tracedBase
			tracedSingle
			tracedFrame
		}{b, ts, tf}
	}
	panic(fmt.Sprintf("perfbench: traceEngine has no decorator for %T's capabilities", eng))
}

// traceHandler wraps h so every one-shot inference request records a
// span of kind, keyed by the X-Request-ID header (-1 when absent).
// Streaming sessions, probes and metrics scrapes pass through
// unrecorded: a session span covers many frames and would swamp the
// per-request statistics.
func traceHandler(h http.Handler, tr *tracer, kind spanKind) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/infer") {
			h.ServeHTTP(w, r)
			return
		}
		t := tr.now()
		h.ServeHTTP(w, r)
		id := int64(-1)
		if v := r.Header.Get(requestIDHeader); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				id = n
			}
		}
		tr.record(kind, id, wire.Negotiates(r.Header.Get("Content-Type")), t)
	})
}
