package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vmprov/internal/metrics"
	"vmprov/internal/workload"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the benchmark's own tables must name the same
// workloads and metrics with the same units, directions and bounds.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, c)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, c)
		}
	}
}

// Every *.self_share the profile split produces has its metrics.
func TestLayersHaveMetrics(t *testing.T) {
	names := map[string]bool{}
	for _, m := range perLayer {
		names[m.name] = true
	}
	for _, l := range layers {
		for _, suffix := range []string{".self_share", ".self_samples"} {
			if !names[l+suffix] {
				t.Errorf("no per-layer metric %s%s", l, suffix)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"vmprov/internal/sim.(*Sim).siftDown":              "sim",
		"vmprov/internal/workload.(*webTicker).Emit.func1": "workload",
		"vmprov/internal/stats.Mean[go.shape.float64]":     "stats",
		"vmprov/internal/trace.(*Buffer).Record":           "other",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "runtime",
		"math.Exp": "other",
		"main.(*source).Start.(*probe).emit.func1":              "other",
		"vmprov/internal/fault.(*Injector).Provision":           "fault",
		"vmprov/internal/experiment.(*RunContext).Setup":        "experiment",
		"vmprov/internal/queueing.Fleet.SharedBlocking":         "queueing",
		"vmprov/internal/sim.push[go.shape.*vmprov/internal/x]": "sim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A wrapped component must expose exactly the optional interfaces of the
// one it wraps, because World.Setup and World.Snapshot choose their code
// paths by type assertion.
func TestWrappersForwardInterfaces(t *testing.T) {
	p := new(probe)
	sources := []workload.Source{
		workload.NewWeb(0.05),
		&workload.PoissonSource{Rate: 1},
	}
	for _, inner := range sources {
		w := wrapSource(inner, p)
		for _, c := range []struct {
			name  string
			check func(any) bool
		}{
			{"FluidSource", func(x any) bool { _, ok := x.(workload.FluidSource); return ok }},
			{"Rewindable", func(x any) bool { _, ok := x.(workload.Rewindable); return ok }},
		} {
			if c.check(inner) != c.check(w) {
				t.Errorf("%T: wrapper %T disagrees on %s", inner, w, c.name)
			}
		}
	}
	analyzers := []workload.Analyzer{
		&workload.WindowAnalyzer{Interval: 60},
		&workload.WebAnalyzer{Model: workload.NewWeb(0.05)},
	}
	for _, inner := range analyzers {
		w := wrapAnalyzer(inner, p)
		for _, c := range []struct {
			name  string
			check func(any) bool
		}{
			{"ObservingAnalyzer", func(x any) bool { _, ok := x.(workload.ObservingAnalyzer); return ok }},
			{"Rewindable", func(x any) bool { _, ok := x.(workload.Rewindable); return ok }},
		} {
			if c.check(inner) != c.check(w) {
				t.Errorf("%T: wrapper %T disagrees on %s", inner, w, c.name)
			}
		}
	}
}

// The traced path must not change what the simulator computes, on every
// workload: the same replication, traced and untraced, gives equal
// results, and the traced probes see the work the workload exists for.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, d := range workloads {
		ps, err := d.panel(7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ps.Scenarios {
			ps.Scenarios[i].Horizon = 1800
		}
		panel, err := ps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		plain := newRunner(d, nil, false)
		plain.add(panel)
		traced := newRunner(d, nil, true)
		traced.add(panel)
		hs := startHeapSampler()
		a, b := plain.runUnit(0, hs), traced.runUnit(0, hs)
		hs.stop()
		for j := range a.results {
			if !metrics.Equal(a.results[j], b.results[j]) {
				t.Errorf("%s job %d: traced result differs from untraced", d.name, j)
			}
		}
		var requests, ticks uint64
		for _, p := range traced.probes[0] {
			requests += p.requests
			ticks += p.ticks
		}
		if requests == 0 {
			t.Errorf("%s: traced run saw no requests", d.name)
		}
		if d.hybrid && ticks == 0 {
			t.Errorf("%s: traced run saw no hybrid ticks", d.name)
		}
	}
}
