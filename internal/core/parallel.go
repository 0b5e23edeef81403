package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// ParallelOpts configures a worker pool (NewPool).
type ParallelOpts struct {
	// Workers is the number of pool workers; 0 or negative means one per
	// GOMAXPROCS.
	Workers int
}

// poolCall is one parallel invocation of an index-range function. It is
// owned by the pool and reused across calls so the steady-state parallel
// hot path allocates nothing.
type poolCall struct {
	fn func(lo, hi, worker int)

	n       int // total items
	chunk   int // items per claimed chunk
	nChunks int
	next    atomic.Int64 // next chunk index to claim

	panicMu  sync.Mutex
	panicVal any // first worker panic, re-raised on the caller

	wg sync.WaitGroup
}

// manyCall describes one pooled InferMany. The pool owns it and binds
// its run method once (Pool.manyFn), so dispatching a batch through the
// generic poolCall allocates nothing.
type manyCall struct {
	m      *Model
	inputs [][]float64
	cfg    RunConfig
	faults []*fault.Stream
	kind   EngineKind
	res    []Result

	scr []*InferScratch // the pool's per-worker scratches
}

// run infers samples [lo, hi) on worker w's scratch.
func (c *manyCall) run(lo, hi, w int) {
	var fs []*fault.Stream
	if c.faults != nil {
		fs = c.faults[lo:hi]
	}
	c.m.inferRange(c.scr[w], c.inputs[lo:hi], c.cfg, fs, c.kind, c.res[lo:hi])
}

// Pool is a bounded worker pool for data-parallel execution: generic
// index-range fan-out (Each, used by Evaluate, the coding sweeps and
// SchemeEngine) and InferMany's per-sample loop (InferOpts.Pool). Each
// worker owns one InferScratch, so pooled InferMany stays at zero
// steady-state allocations per worker; the shared scatter plans on the
// model are read lock-free by every worker.
//
// Calls are serialized internally (one parallel call runs at a time),
// so concurrent Each calls are safe: their results flow through fn.
// Concurrent pooled InferMany callers need one extra rule — returned
// results alias pool memory and are overwritten by the next call, so
// callers sharing a pool must consume (copy out of) results under their
// own lock before another call can start; internal/serve's TTFSEngine
// does exactly that. Calls must not be nested: fn passed to Each must
// never call back into the same pool.
//
// A nil *Pool is accepted everywhere and means "run sequentially".
type Pool struct {
	workers int

	mu      sync.Mutex // serializes calls, guards state below
	started bool
	closed  bool
	calls   chan *poolCall
	scr     []*InferScratch
	results []Result
	call    poolCall
	many    manyCall
	manyFn  func(lo, hi, worker int) // many.run, bound once in NewPool

	chunks atomic.Uint64 // cumulative chunks dispatched
}

// NewPool builds a pool. Worker goroutines start lazily on the first
// parallel call; Close releases them.
func NewPool(opts ParallelOpts) *Pool {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: w}
	p.scr = make([]*InferScratch, w)
	for i := range p.scr {
		p.scr[i] = &InferScratch{}
	}
	p.many.scr = p.scr
	p.manyFn = p.many.run
	return p
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Chunks returns the cumulative number of work chunks the pool has
// dispatched (0 for a nil pool) — the parallel_chunks serving metric.
func (p *Pool) Chunks() uint64 {
	if p == nil {
		return 0
	}
	return p.chunks.Load()
}

// Close stops the worker goroutines. The pool runs sequentially (on the
// caller's goroutine) afterwards; Close is idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		if p.started {
			close(p.calls)
		}
	}
	p.mu.Unlock()
}

// start launches the workers once. Caller holds p.mu.
func (p *Pool) start() {
	if p.started {
		return
	}
	p.started = true
	p.calls = make(chan *poolCall, p.workers)
	for w := 0; w < p.workers; w++ {
		go p.worker(w)
	}
}

func (p *Pool) worker(wid int) {
	for c := range p.calls {
		p.serve(c, wid)
		c.wg.Done()
	}
}

// serve claims chunks off one call until none remain. A panic in a
// chunk is recorded (first wins), further claims are cancelled, and the
// call's initiator re-raises it — matching the sequential path's panic
// semantics without killing the worker.
func (p *Pool) serve(c *poolCall, wid int) {
	defer func() {
		if r := recover(); r != nil {
			c.panicMu.Lock()
			if c.panicVal == nil {
				c.panicVal = r
			}
			c.panicMu.Unlock()
			c.next.Store(int64(c.nChunks)) // cancel remaining chunks
		}
	}()
	for {
		i := int(c.next.Add(1)) - 1
		if i >= c.nChunks {
			return
		}
		lo := i * c.chunk
		hi := lo + c.chunk
		if hi > c.n {
			hi = c.n
		}
		c.fn(lo, hi, wid)
	}
}

// Warm primes every worker's scratch for the given model and batch by
// running the batch sequentially on each on the clocked engine, plus
// the pool's result backing. Any worker may claim any chunk, and a
// whole-batch pass covers the buffer needs of every sub-range, so after
// Warm, pooled clocked InferMany calls on same-shaped batches start at
// zero steady-state allocations (the event and quant engines size
// their own buffers on first use). snnserve calls this at startup.
func (p *Pool) Warm(m *Model, inputs [][]float64, cfg RunConfig) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	res := p.takeResults(len(inputs))
	for _, sc := range p.scr {
		m.inferRange(m.prepare(sc), inputs, cfg, nil, EngineClocked, res)
	}
}

// takeResults returns a zeroed pool-owned result slice.
func (p *Pool) takeResults(n int) []Result {
	if cap(p.results) < n {
		p.results = make([]Result, n)
	}
	res := p.results[:n]
	for i := range res {
		res[i] = Result{}
	}
	return res
}

// Each runs fn over [0, n) split into chunks of the given size, claimed
// across the pool's workers (work stealing: a fast worker takes more
// chunks). fn receives the half-open range [lo, hi) and the worker
// index in [0, Workers()) — per-worker state indexed by it is never
// touched concurrently. fn must be safe for concurrent invocation on
// disjoint ranges; a panic in fn propagates to the caller after all
// workers stop claiming. A nil or closed pool runs fn sequentially on
// the caller's goroutine with worker index 0.
func (p *Pool) Each(n, chunk int, fn func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	if p == nil || p.workers <= 1 || n <= chunk {
		// One worker or one chunk: no fan-out, so no call lock either.
		if p != nil {
			p.chunks.Add(1 + uint64((n-1)/chunk))
		}
		eachSeq(n, chunk, fn)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.each(n, chunk, fn)
}

// each is Each with p.mu held: it engages up to one worker per chunk
// and waits, or runs fn on the caller's goroutine when one worker
// suffices or the pool is closed.
func (p *Pool) each(n, chunk int, fn func(lo, hi, worker int)) {
	nChunks := (n + chunk - 1) / chunk
	p.chunks.Add(uint64(nChunks))
	w := min(p.workers, nChunks)
	if w <= 1 || p.closed {
		eachSeq(n, chunk, fn)
		return
	}
	p.start()
	c := &p.call
	c.fn = fn
	c.n, c.chunk, c.nChunks = n, chunk, nChunks
	c.next.Store(0)
	c.wg.Add(w)
	for i := 0; i < w; i++ {
		p.calls <- c
	}
	c.wg.Wait()
	pv := c.panicVal
	c.fn, c.panicVal = nil, nil
	if pv != nil {
		panic(pv)
	}
}

// inferMany is InferMany on the pool: the per-sample loop sharded in
// work-stealing chunks over the workers' scratches, or run on the
// caller's goroutine when the pool has one worker or is closed. The
// results alias the pool's result backing and worker scratches until
// the next call on the pool.
func (p *Pool) inferMany(m *Model, inputs [][]float64, cfg RunConfig, faults []*fault.Stream, kind EngineKind) []Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Any worker may claim any chunk, so every worker's arena rewinds
	// once up front and each chunk lands in fresh arena space.
	for _, sc := range p.scr {
		m.prepare(sc)
	}
	n := len(inputs)
	res := p.takeResults(n)
	c := &p.many
	c.m, c.inputs, c.cfg, c.faults, c.kind, c.res = m, inputs, cfg, faults, kind, res
	// drop caller references so the pool doesn't pin inputs between calls
	defer func() { c.m, c.inputs, c.faults, c.res = nil, nil, nil, nil }()
	if n > 0 {
		p.each(n, evalChunk(n, p.workers), p.manyFn)
	}
	return res
}

// evalChunk sizes per-sample work-stealing chunks: about four chunks
// per worker keeps stealing effective when per-sample cost varies
// (early firing, faults, early exit).
func evalChunk(n, workers int) int {
	return max(1, n/(workers*4))
}

func eachSeq(n, chunk int, fn func(lo, hi, worker int)) {
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi, 0)
	}
}
