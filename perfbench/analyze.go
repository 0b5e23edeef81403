package main

// spanKey joins spans of one request: same layer boundary, pass and id.
type spanKey struct {
	kind spanKind
	pass int32
	id   int64
}

// parts is the traced run's per-layer split of one workload.
type parts struct {
	metrics map[string]float64
	// sum-of-parts check: the layer medians that should add up to the
	// traced end-to-end median, and what is left over
	p50us    float64
	partsUS  map[string]float64
	residual float64
	// decodeWaitUS is the stream client's median wait in
	// EventDecoder.Next: the frame's server time plus the event's trip.
	decodeWaitUS float64
}

// sumTolerance is the share of the end-to-end median the layer medians
// may miss it by before the sum-of-parts check reports a gap. Medians of
// parts do not add exactly to the median of their sum.
const sumTolerance = 0.10

func us(ns int64) float64 { return float64(ns) / 1e3 }

// analyzeSpans turns one traced window into per-layer metrics. Spans of
// a request join on (pass, id); gateway spans join backend handler
// spans only in aggregate, because the gateway forwards no request id.
func analyzeSpans(k kind, spans []span, rs *requestSet) parts {
	idx := map[spanKey][]span{}
	byKind := map[spanKind][]span{}
	for _, s := range spans {
		byKind[s.kind] = append(byKind[s.kind], s)
		if s.id >= 0 {
			key := spanKey{s.kind, s.pass, s.id}
			idx[key] = append(idx[key], s)
		}
	}
	durs := func(ss []span, keep func(span) bool) []float64 {
		var out []float64
		for _, s := range ss {
			if keep == nil || keep(s) {
				out = append(out, us(s.dur()))
			}
		}
		return out
	}
	isBinary := func(s span) bool {
		return rs.binary != nil && s.id >= 0 && int(s.id) < len(rs.binary) && rs.binary[s.id]
	}
	p := parts{metrics: map[string]float64{}, partsUS: map[string]float64{}}
	m := p.metrics
	pct := func(name string, vals []float64) {
		s := sortedCopy(vals)
		if v, ok := percentile(s, 0.50); ok {
			m[name+".p50"] = v
		}
		if v, ok := percentile(s, 0.99); ok {
			m[name+".p99"] = v
		}
	}

	clients := byKind[spanClient]
	p.p50us, _ = percentile(sortedCopy(durs(clients, nil)), 0.50)
	engine := durs(byKind[spanEngine], nil)
	engineP50, _ := percentile(sortedCopy(engine), 0.50)
	handler := byKind[spanHandler]

	switch k {
	case kindOffline:
		m["core.evaluate_us_per_sample"] = median(durs(byKind[spanCore], nil)) / evalBatch
		return p
	case kindStream:
		var self []float64
		for _, c := range clients {
			self = append(self, us(selfTime(c, idx[spanKey{spanEngine, c.pass, c.id}])))
		}
		m["stream.self_us"] = median(self)
		p.decodeWaitUS = median(durs(byKind[spanDecode], nil))
		pct("serve.engine_us", engine)
		p.partsUS["stream.self_us"] = m["stream.self_us"]
	case kindOneshot:
		var client, selfJSON, selfBin []float64
		for _, c := range clients {
			h := idx[spanKey{spanHandler, c.pass, c.id}]
			if len(h) == 0 {
				continue
			}
			client = append(client, us(selfTime(c, h)))
			self := us(selfTime(h[0], idx[spanKey{spanEngine, c.pass, c.id}]))
			if c.binary {
				selfBin = append(selfBin, self)
			} else {
				selfJSON = append(selfJSON, self)
			}
		}
		m["http.client_us"] = median(client)
		m["serve.self_us.json"] = median(selfJSON)
		m["serve.self_us.binary"] = median(selfBin)
		pct("serve.handler_us", durs(handler, nil))
		pct("serve.engine_us", engine)
		p.partsUS["http.client_us"] = m["http.client_us"]
		p.partsUS["serve.self_us"] = median(append(selfJSON, selfBin...))
	case kindFleet:
		var client []float64
		for _, c := range clients {
			if g := idx[spanKey{spanGateway, c.pass, c.id}]; len(g) > 0 {
				client = append(client, us(selfTime(c, g)))
			}
		}
		gw := byKind[spanGateway]
		hMed := median(durs(handler, nil))
		m["http.client_us"] = median(client)
		m["gateway.self_us"] = median(durs(gw, nil)) - hMed
		if len(gw) > 0 {
			m["gateway.attempts_per_request"] = float64(len(handler)) / float64(len(gw))
		}
		engBin := durs(byKind[spanEngine], isBinary)
		engJSON := durs(byKind[spanEngine], func(s span) bool { return !isBinary(s) })
		m["serve.self_us.json"] = median(durs(handler, func(s span) bool { return !s.binary })) - median(engJSON)
		m["serve.self_us.binary"] = median(durs(handler, func(s span) bool { return s.binary })) - median(engBin)
		pct("serve.handler_us", durs(handler, nil))
		pct("serve.engine_us", engine)
		p.partsUS["http.client_us"] = m["http.client_us"]
		p.partsUS["gateway.self_us"] = m["gateway.self_us"]
		p.partsUS["serve.self_us"] = hMed - median(engine)
	}
	p.partsUS["serve.engine_us"] = engineP50
	sum := 0.0
	for _, v := range p.partsUS {
		sum += v
	}
	p.residual = p.p50us - sum
	return p
}
