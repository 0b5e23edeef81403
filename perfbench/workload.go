package main

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stream"
	"repro/internal/wire"
)

type kind int

const (
	kindOffline kind = iota // core.Evaluate on a core.Pool, no serving stack
	kindOneshot             // closed-loop POSTs to one Registry
	kindStream              // lockstep binary stream sessions on one Registry
	kindFleet               // the one-shot requests through a gateway over two Registries
)

// workload is one seeded traffic mix. The README says why each exists.
type workload struct {
	name    string
	dataset string // "mnist" | "cifar100", at the tiny scale
	kind    kind
	engine  core.EngineKind
	useGO   bool // serve the gradient-optimized kernels (experiments.BuildModels)
	n       int  // samples (or frames) per pass over the request set
}

var workloads = []workload{
	{name: "offline-cifar100", dataset: "cifar100", kind: kindOffline, engine: core.EngineClocked, useGO: true, n: 512},
	{name: "oneshot-mnist", dataset: "mnist", kind: kindOneshot, engine: core.EngineQuant, n: 1000},
	{name: "stream-mnist", dataset: "mnist", kind: kindStream, engine: core.EngineEvent, n: 1000},
	{name: "fleet-mnist", dataset: "mnist", kind: kindFleet, engine: core.EngineQuant, n: 1000},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := ""
	for i, w := range workloads {
		if i > 0 {
			names += "|"
		}
		names += w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, names)
}

const (
	// poolSeed fixes the sample multiset of every workload. --seed only
	// orders it and picks each request's wire format, so accuracy,
	// spikes and decision steps repeat exactly across seeds while the
	// bytes sent differ.
	poolSeed = 0x7432_6673
	// evalBatch is the offline job size: each core.Evaluate call gets
	// this many samples, four per worker on two cores.
	evalBatch = 8
	// streamSegments splits the stream frames into independent random
	// walks whose order --seed shuffles across sessions.
	streamSegments = 8
	// walkStep and walkJump are the stream.Walk perturbation per frame
	// and regime-jump probability: the defaults of snnload's -walk-step
	// and -walk-jump, the repository's own stream traffic generator.
	walkStep, walkJump = 0.02, 0.05
)

// requestSet is one run's inputs. Index i everywhere below is a
// canonical sample index; it is also the request id (X-Request-ID and
// the fault-free sample field), so spans and responses join on it.
type requestSet struct {
	inputs [][]float64 // float32-exact, so JSON and the f32 wire lane carry identical values
	labels []int
	order  []int  // send order of the canonical indices
	binary []bool // one-shot: request i goes on application/x-t2f, else JSON

	bodies  [][]byte      // one-shot request bodies
	headers []http.Header // one-shot request headers
	frames  [][]byte      // stream: binary request frame of frame i

	// sessions lists, per stream session, its frames in send order.
	sessions [][]int
}

// splitmix is a tiny seeded generator (splitmix64), independent of
// math/rand's algorithm choices across Go versions.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// canonicalSamples generates the workload's fixed sample multiset with
// the dataset generator at poolSeed (never the training seed).
func canonicalSamples(w *workload, n int) ([][]float64, []int) {
	cfg := dataset.Config{Test: n, Seed: poolSeed}
	var test *dataset.Dataset
	if w.dataset == "cifar100" {
		_, test = dataset.CIFAR100Like(cfg)
	} else {
		_, test = dataset.MNISTLike(cfg)
	}
	sz := test.X.Len() / n
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = f32(test.X.Data[i*sz : (i+1)*sz])
	}
	return inputs, test.Labels
}

// f32 copies v rounded to float32 precision.
func f32(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(float32(x))
	}
	return out
}

// buildRequests makes the run's request set from seed, for clients
// concurrent clients or sessions.
func buildRequests(w *workload, seed uint64, clients int) *requestSet {
	rng := splitmix(seed)
	rs := &requestSet{}
	if w.kind == kindStream {
		// The frames are a fixed set of correlated random walks over
		// canonical bases; the seed deals the walks to the sessions.
		bases, baseLabels := canonicalSamples(w, 200)
		per := w.n / streamSegments
		var segs [][]int
		for s := 0; s < streamSegments; s++ {
			walk := stream.NewWalk(bases, poolSeed+uint64(s), walkStep, walkJump)
			var seg []int
			for f := 0; f < per; f++ {
				in, base := walk.Next()
				seg = append(seg, len(rs.inputs))
				rs.inputs = append(rs.inputs, f32(in))
				rs.labels = append(rs.labels, baseLabels[base])
			}
			segs = append(segs, seg)
		}
		rs.sessions = make([][]int, clients)
		for k, s := range rng.perm(len(segs)) {
			c := k % clients
			rs.sessions[c] = append(rs.sessions[c], segs[s]...)
		}
		for _, sess := range rs.sessions {
			rs.order = append(rs.order, sess...)
		}
		rs.frames = make([][]byte, len(rs.inputs))
		for i, in := range rs.inputs {
			rs.frames[i] = wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: i, Label: -1}, in)
		}
		return rs
	}
	rs.inputs, rs.labels = canonicalSamples(w, w.n)
	rs.order = rng.perm(w.n)
	if w.kind == kindOffline {
		return rs
	}
	rs.encodeOneshot(&rng)
	return rs
}

// encodeOneshot gives exactly half of the requests the binary wire
// format, the seed picking which, and encodes every body once.
func (rs *requestSet) encodeOneshot(rng *splitmix) {
	n := len(rs.inputs)
	rs.binary = make([]bool, n)
	for k, i := range rng.perm(n) {
		rs.binary[i] = k%2 == 0
	}
	rs.bodies = make([][]byte, n)
	rs.headers = make([]http.Header, n)
	for i, in := range rs.inputs {
		ct := "application/json"
		if rs.binary[i] {
			ct = wire.ContentType
			rs.bodies[i] = wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: i, Label: -1}, in)
		} else {
			rs.bodies[i] = appendJSONRequest(nil, in, i)
		}
		rs.headers[i] = http.Header{
			"Content-Type":  {ct},
			requestIDHeader: {strconv.Itoa(i)},
		}
	}
}

// appendJSONRequest encodes the /v1/infer JSON body a float64 client
// sends: the input with shortest round-trip formatting, and the sample
// index, which keys fault injection (none is configured) and lets the
// engine decorator join its span to the request.
func appendJSONRequest(b []byte, input []float64, sample int) []byte {
	b = append(b, `{"input":[`...)
	for j, v := range input {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, `],"sample":`...)
	b = strconv.AppendInt(b, int64(sample), 10)
	return append(b, '}')
}

// sentBytes is everything the run sends, in send order: the request
// set's identity for the determinism test.
func (rs *requestSet) sentBytes() []byte {
	var b []byte
	for _, i := range rs.order {
		switch {
		case rs.bodies != nil:
			b = append(b, rs.headers[i].Get("Content-Type")...)
			b = append(b, rs.bodies[i]...)
		case rs.frames != nil:
			b = append(b, rs.frames[i]...)
		default:
			for _, v := range rs.inputs[i] {
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
		}
	}
	return b
}
