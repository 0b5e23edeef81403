package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// runner runs passes over the request set. A pass sends every request
// (or frame, or offline batch) once, with closed-loop clients; its
// timings go into lat (ns, one slot per operation) and its outputs are
// checked against golden after the pass, outside the timed part.
type runner interface {
	opsPerPass() int
	pass(lat []int64) (elapsed time.Duration, failed int, err error)
}

// window is the timing of whole passes.
type window struct {
	passes, ops, failed int
	elapsed             time.Duration
	lat                 []int64 // ns per operation, all passes
	passTimes           []time.Duration
}

// minOps is the fewest timed operations a window collects, so a p99 has
// at least ten samples beyond it.
const minOps = 1100

// runWindow runs whole passes until at least seconds have been timed
// and minOps operations collected. Latency slots are allocated between
// passes, never per request. Passes are tagged on tr when tracing.
func runWindow(d runner, seconds float64, estPass time.Duration, tr *tracer) (window, error) {
	n := d.opsPerPass()
	est := 4
	if estPass > 0 {
		est += int(seconds / estPass.Seconds())
	}
	w := window{lat: make([]int64, 0, n*max(est, minOps/n+2))}
	for w.elapsed.Seconds() < seconds || w.ops < minOps {
		if tr != nil {
			tr.setPass(w.passes)
		}
		w.lat = append(w.lat, make([]int64, n)...)
		el, failed, err := d.pass(w.lat[w.ops:])
		if err != nil {
			return w, err
		}
		w.passes++
		w.ops += n
		w.failed += failed
		w.elapsed += el
		w.passTimes = append(w.passTimes, el)
	}
	return w, nil
}

// ---- offline: core.Evaluate on a pool ----

type offlineRunner struct {
	sys     *system
	g       *golden
	batches []evalBatchSet
	tr      *tracer
	results []core.EvalResult
	errs    []error
}

type evalBatchSet struct {
	idx    []int // canonical indices
	x      *tensor.Tensor
	labels []int
}

func newOfflineRunner(sys *system, rs *requestSet, g *golden, tr *tracer) *offlineRunner {
	d := &offlineRunner{sys: sys, g: g, tr: tr}
	inLen := sys.model.Net.InLen
	for lo := 0; lo < len(rs.order); lo += evalBatch {
		idx := rs.order[lo:min(lo+evalBatch, len(rs.order))]
		b := evalBatchSet{idx: idx, x: tensor.New(len(idx), inLen)}
		for k, i := range idx {
			copy(b.x.Data[k*inLen:], rs.inputs[i])
			b.labels = append(b.labels, rs.labels[i])
		}
		d.batches = append(d.batches, b)
	}
	d.results = make([]core.EvalResult, len(d.batches))
	d.errs = make([]error, len(d.batches))
	return d
}

func (d *offlineRunner) opsPerPass() int { return len(d.batches) }

func (d *offlineRunner) pass(lat []int64) (time.Duration, int, error) {
	opts := core.EvalOptions{Run: d.sys.run, Pool: d.sys.pool, Engine: d.sys.w.engine}
	start := time.Now()
	for b := range d.batches {
		t0 := time.Now()
		var ts int64
		if d.tr != nil {
			ts = d.tr.now()
		}
		d.results[b], d.errs[b] = core.Evaluate(d.sys.model, d.batches[b].x, d.batches[b].labels, opts)
		if d.tr != nil {
			d.tr.record(spanCore, int64(b), false, ts)
		}
		lat[b] = int64(time.Since(t0))
	}
	elapsed := time.Since(start)
	failed := 0
	for b, batch := range d.batches {
		err := d.errs[b]
		if err == nil {
			err = d.g.checkEval(batch.idx, batch.labels, d.results[b])
		}
		if err != nil {
			failed++
			noteFailure(err)
		}
	}
	return elapsed, failed, nil
}

// ---- one-shot: closed-loop POSTs ----

// respSlot bounds one stored response; a correct one is at most ~200
// bytes of JSON or a 24-byte wire frame.
const respSlot = 512

type oneshotRunner struct {
	rs      *requestSet
	g       *golden
	url     string
	hc      *http.Client
	clients int
	tr      *tracer

	status []int
	resp   []byte // respSlot bytes per request, by send position
	rlen   []int
}

func newOneshotRunner(rs *requestSet, g *golden, url string, hc *http.Client, clients int, tr *tracer) *oneshotRunner {
	n := len(rs.order)
	return &oneshotRunner{
		rs: rs, g: g, url: url, hc: hc, clients: clients, tr: tr,
		status: make([]int, n), resp: make([]byte, n*respSlot), rlen: make([]int, n),
	}
}

func (d *oneshotRunner) opsPerPass() int { return len(d.rs.order) }

// bodyReader is a request body the client resets per request instead
// of allocating.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func (d *oneshotRunner) pass(lat []int64) (time.Duration, int, error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, d.clients)
	start := time.Now()
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = d.client(&next, lat)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return 0, 0, err
	}
	failed := 0
	for pos, i := range d.rs.order {
		if err := d.check(pos, i); err != nil {
			failed++
			noteFailure(err)
		}
	}
	return elapsed, failed, nil
}

// client sends requests from the shared cursor until the pass is done.
// Its http.Request, body reader and buffers are reused throughout.
func (d *oneshotRunner) client(next *atomic.Int64, lat []int64) error {
	req, err := http.NewRequest(http.MethodPost, d.url, nil)
	if err != nil {
		return err
	}
	body := &bodyReader{}
	for {
		pos := int(next.Add(1) - 1)
		if pos >= len(d.rs.order) {
			return nil
		}
		i := d.rs.order[pos]
		body.Reset(d.rs.bodies[i])
		req.Body, req.ContentLength, req.Header = body, int64(len(d.rs.bodies[i])), d.rs.headers[i]
		t0 := time.Now()
		var ts int64
		if d.tr != nil {
			ts = d.tr.now()
		}
		resp, err := d.hc.Do(req)
		d.status[pos], d.rlen[pos] = 0, 0
		if err == nil {
			d.status[pos] = resp.StatusCode
			d.rlen[pos], err = readFull(resp.Body, d.resp[pos*respSlot:(pos+1)*respSlot])
			resp.Body.Close()
		}
		if d.tr != nil {
			d.tr.record(spanClient, int64(i), d.rs.binary[i], ts)
		}
		lat[pos] = int64(time.Since(t0))
		if err != nil {
			d.status[pos] = -1
			noteFailure(fmt.Errorf("request %d: %w", i, err))
		}
	}
}

// readFull reads r to EOF into buf, failing if buf is too small.
func readFull(r io.Reader, buf []byte) (int, error) {
	n := 0
	for {
		if n == len(buf) {
			var one [1]byte
			if m, _ := r.Read(one[:]); m > 0 {
				return n, errors.New("response exceeds its slot")
			}
			return n, nil
		}
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// check verifies the response stored at send position pos for request i.
func (d *oneshotRunner) check(pos, i int) error {
	if d.status[pos] != http.StatusOK {
		return fmt.Errorf("request %d: status %d", i, d.status[pos])
	}
	b := d.resp[pos*respSlot : pos*respSlot+d.rlen[pos]]
	var o outcome
	if d.rs.binary[i] {
		r, err := wire.DecodeResponse(b)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		o = outcome{r.Pred, r.LatencySteps, int(r.TotalSpikes), r.EarlyExit, int(r.EventsSaved)}
	} else {
		var r serve.InferResponse
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		o = outcome{r.Pred, r.LatencySteps, r.TotalSpikes, r.EarlyExit, r.EventsSaved}
	}
	return d.g.check(i, o)
}

// ---- stream: lockstep binary sessions ----

type streamRunner struct {
	rs  *requestSet
	g   *golden
	url string
	hc  *http.Client
	tr  *tracer

	ev      []stream.Event // by canonical frame index
	got     []bool
	retries atomic.Int64
}

func newStreamRunner(rs *requestSet, g *golden, url string, hc *http.Client, tr *tracer) *streamRunner {
	return &streamRunner{rs: rs, g: g, url: url, hc: hc, tr: tr,
		ev: make([]stream.Event, len(rs.inputs)), got: make([]bool, len(rs.inputs))}
}

func (d *streamRunner) opsPerPass() int { return len(d.rs.order) }

func (d *streamRunner) pass(lat []int64) (time.Duration, int, error) {
	clear(d.got)
	var wg sync.WaitGroup
	errs := make([]error, len(d.rs.sessions))
	start := time.Now()
	pos := 0
	for s, frames := range d.rs.sessions {
		wg.Add(1)
		go func(s int, frames []int, lat []int64) {
			defer wg.Done()
			errs[s] = d.session(frames, lat)
		}(s, frames, lat[pos:pos+len(frames)])
		pos += len(frames)
	}
	wg.Wait()
	elapsed := time.Since(start)
	failed := 0
	for _, err := range errs {
		if err != nil {
			noteFailure(err)
		}
	}
	for _, i := range d.rs.order {
		var err error
		ev := &d.ev[i]
		switch {
		case !d.got[i]:
			err = fmt.Errorf("frame %d: no event", i)
		case ev.Kind != stream.KindFrame:
			err = fmt.Errorf("frame %d: %s event: %s", i, ev.Kind, ev.Msg)
		default:
			err = d.g.check(i, outcome{ev.Pred, ev.LatencySteps, ev.TotalSpikes, ev.EarlyExit, ev.EventsSaved})
			if err == nil {
				err = d.g.checkStages(i, ev.StageSpikes)
			}
		}
		if err != nil {
			failed++
			noteFailure(err)
		}
	}
	return elapsed, failed, nil
}

// session runs one binary stream session in lockstep: one frame in
// flight, each frame timed from write to decoded event.
func (d *streamRunner) session(frames []int, lat []int64) error {
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, d.url, pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType)
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	dec, err := stream.NewEventDecoder(resp.Body, resp.Header.Get("Content-Type"))
	if err != nil {
		return err
	}
	for k, i := range frames {
		t0 := time.Now()
		var ts int64
		if d.tr != nil {
			ts = d.tr.now()
		}
		if _, err := pw.Write(d.rs.frames[i]); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		var td int64
		if d.tr != nil {
			td = d.tr.now()
		}
		err := dec.Next(&d.ev[i])
		if d.tr != nil {
			d.tr.record(spanDecode, int64(i), true, td)
			d.tr.record(spanClient, int64(i), true, ts)
		}
		lat[k] = int64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		d.got[i] = true
		if k := d.ev[i].Kind; k == stream.KindRetry || k == stream.KindDrain {
			d.retries.Add(1)
			return fmt.Errorf("frame %d: terminal %s event", i, k)
		}
	}
	pw.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// ---- failure notes ----

var failures struct {
	sync.Mutex
	n     int
	first []string
}

// noteFailure counts a failed operation and keeps the first few
// reasons for the report.
func noteFailure(err error) {
	failures.Lock()
	defer failures.Unlock()
	failures.n++
	if len(failures.first) < 5 {
		failures.first = append(failures.first, err.Error())
	}
}
