package main

import (
	"strings"
	"testing"
)

func TestParseModelSpec(t *testing.T) {
	for _, c := range []struct {
		in      string
		want    modelSpec
		wantErr string
	}{
		// legacy bare path: named "default", always ttfs
		{in: "m.t2f", want: modelSpec{name: "default", source: "m.t2f", scheme: "ttfs", steps: 100}},
		{in: "a=mnist/tiny:rate:50", want: modelSpec{name: "a", source: "mnist/tiny", scheme: "rate", steps: 50}},
		{in: "a=m.t2f", want: modelSpec{name: "a", source: "m.t2f", scheme: "phase", steps: 100}},
		{in: "a=m.t2f:quant", want: modelSpec{name: "a", source: "m.t2f", scheme: "quant", steps: 100}},
		{in: "a=mnist/tiny::7", want: modelSpec{name: "a", source: "mnist/tiny", scheme: "phase", steps: 7}},
		{in: "=m.t2f", wantErr: "empty model name"},
		{in: "a=", wantErr: "empty model source"},
		{in: "a=:rate", wantErr: "empty model source"},
		{in: "a=src:rate:0", wantErr: "bad steps"},
		{in: "a=src:rate:-3", wantErr: "bad steps"},
		{in: "a=src:rate:x", wantErr: "bad steps"},
		{in: "a=src:rate:5:9", wantErr: "too many fields"},
		{in: "a=src:bogus", wantErr: "unknown scheme"},
	} {
		got, err := parseModelSpec(c.in, "phase", 100)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%q: error %v, want one containing %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
		} else if got != c.want {
			t.Errorf("%q: %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseModelSpecs(t *testing.T) {
	for _, c := range []struct {
		name    string
		raw     []string
		want    []modelSpec
		wantErr bool
	}{
		{name: "dataset fallback", want: []modelSpec{{name: "default", source: "cifar10/small", scheme: "rate", steps: 30}}},
		{name: "in order", raw: []string{"a=m.t2f", "b=mnist/tiny:burst:9"}, want: []modelSpec{
			{name: "a", source: "m.t2f", scheme: "rate", steps: 30},
			{name: "b", source: "mnist/tiny", scheme: "burst", steps: 9},
		}},
		{name: "one bad spec fails all", raw: []string{"a=m.t2f", "b=src:nope"}, wantErr: true},
	} {
		got, err := parseModelSpecs(c.raw, "cifar10", "small", "rate", 30)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: accepted %v", c.name, c.raw)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d specs, want %d", c.name, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: spec %d %+v, want %+v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

// TestValidScheme pins the scheme whitelist shared by -model parsing and
// the /swap engine builder.
func TestValidScheme(t *testing.T) {
	for scheme, want := range map[string]struct{ valid, core bool }{
		"ttfs": {true, true}, "event": {true, true}, "quant": {true, true},
		"rate": {true, false}, "phase": {true, false}, "burst": {true, false},
		"": {false, false}, "clock": {false, false}, "TTFS": {false, false},
	} {
		if got := validScheme(scheme); got != want.valid {
			t.Errorf("validScheme(%q) = %v, want %v", scheme, got, want.valid)
		}
		if got := coreScheme(scheme); got != want.core {
			t.Errorf("coreScheme(%q) = %v, want %v", scheme, got, want.core)
		}
	}
}
