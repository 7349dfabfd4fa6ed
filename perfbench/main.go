// Command perfbench is vmprov's benchmark: it times the simulator on four
// web workloads through the public experiment API and checks every
// replication it runs.
//
//	bash perfbench/run.sh --workload web-exact --seed 1 --seconds 25 --trace 0
//
// builds the benchmark into .bench_build/ and runs one workload. With
// --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run and a CPU profile per
// workload. --workload all runs every workload in turn; --describe prints
// the workloads, the metrics and the layer map as JSON. The last line of
// standard output is one JSON result object per workload run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vmprov/internal/experiment"
	simmetrics "vmprov/internal/metrics"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name, comma-separated names, or all")
		seed     = flag.Uint64("seed", 1, "input seed; replication seeds derive from it")
		seconds  = flag.Float64("seconds", 25, "host seconds each run measures for")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a CPU profile")
		profiles = flag.String("profiles", filepath.Join(".bench_build", "profiles"), "directory for traced runs' CPU profiles")
		describe = flag.Bool("describe", false, "print workloads, metrics and the layer map as JSON and exit")
	)
	flag.Parse()
	if *describe {
		if err := printDescription(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *workload == "" || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := strings.Split(*workload, ",")
	if *workload == "all" {
		names = names[:0]
		for _, d := range workloads {
			names = append(names, d.name)
		}
	}
	var defs []*workloadDef
	for _, n := range names {
		d, err := findWorkload(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		defs = append(defs, d)
	}
	for _, d := range defs {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(d, *seed, *seconds, *profiles)
		} else {
			res, err = runUntraced(d, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", d.name, err)
			os.Exit(1)
		}
		if err := res.print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// result is one workload run's report.
type result struct {
	workload  string
	seed      uint64
	traced    bool
	units     int
	attempted int
	failed    int
	failures  []string
	notes     []string
	values    map[string]float64

	hybridUsed, panelUsed float64 // hybrid workloads: tolerance used by the Adaptive row and by the worst row
}

// print writes the human-readable table, then the JSON result line.
func (r *result) print(f *os.File) error {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "%s (%s, seed %d): %d units, %d replications, %d failed\n",
		r.workload, mode, r.seed, r.units, r.attempted, r.failed)
	for _, m := range r.failures {
		fmt.Fprintln(f, "  FAIL", m)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := r.values[m.name]
		fmt.Fprintf(f, "  %-30s %16.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, "  note:", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runUntraced measures the end-to-end metrics.
func runUntraced(d *workloadDef, seed uint64, seconds float64) (*result, error) {
	setup, err := measureSetup(d, seed)
	if err != nil {
		return nil, err
	}
	panels, err := d.compileUnits(seed)
	if err != nil {
		return nil, err
	}
	ps := newRunner(d, panels, false).loop(seconds, 1)
	res := &result{workload: d.name, seed: seed, units: len(ps.units),
		attempted: ps.attempted, failed: ps.failed, failures: ps.failures}
	rows := aggregateRows(ps.first)
	if err := res.checkHybrid(d, seed, rows); err != nil {
		return nil, err
	}

	var rates, peaks []float64
	var alloc, arrived uint64
	for _, b := range ps.blocks {
		rates = append(rates, ratio(float64(b.arrived), b.wall.Seconds()*hostSpeed(b.cal)))
	}
	for i, u := range ps.units {
		peaks = append(peaks, float64(u.peakHeap)/(1<<20))
		if i < d.k {
			// Allocation is a function of the replication and what ran
			// before it, so it is counted over the first pass, where each
			// seed of the quality set runs once.
			alloc += u.alloc
			arrived += u.arrived
		}
	}
	res.values = map[string]float64{
		"sim_requests_per_ref_s":  median(rates),
		"setup_s":                 setup.Seconds(),
		"alloc_bytes_per_request": ratio(float64(alloc), float64(arrived)),
		"peak_heap_mb":            median(peaks),
		"mean_response_s":         rows[0].MeanResponse,
		"objective_vm_s":          objective(rows[0]),
	}
	return res, nil
}

// checkHybrid compares a hybrid workload's quality set with the same
// panels run in exact mode. The Adaptive row must stay within
// metrics.HybridTolerance, or its replications count as failed.
func (r *result) checkHybrid(d *workloadDef, seed uint64, rows []simmetrics.Result) error {
	if !d.hybrid {
		return nil
	}
	ref, err := d.exactReference(seed)
	if err != nil {
		return err
	}
	used := tolUsed(ref[0], rows[0])
	worst := 0.0
	for j := range rows {
		worst = max(worst, tolUsed(ref[j], rows[j]))
	}
	if used > 1 {
		r.failed += d.k
		r.failures = append(r.failures, fmt.Sprintf("%s leaves the hybrid tolerance: %.3f× (%s)",
			rows[0].Policy, used, strings.Join(simmetrics.CloseToDiff(ref[0], rows[0], simmetrics.HybridTolerance()), "; ")))
	}
	r.hybridUsed, r.panelUsed = used, worst
	return nil
}

// runTraced measures the per-layer metrics: an untraced pass over the
// quality set, then the traced loop under a CPU profile. The traced
// results must equal the untraced ones.
func runTraced(d *workloadDef, seed uint64, seconds float64, profDir string) (*result, error) {
	panels, err := d.compileUnits(seed)
	if err != nil {
		return nil, err
	}
	// An untraced loop first: its first pass is the fidelity reference,
	// and its units, a quarter of the run's time or more, the overhead
	// base.
	br := newRunner(d, panels, false)
	br.calibrate = false // as in the traced loop
	base := br.loop(seconds/4, 1)

	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(profDir, fmt.Sprintf("cpu-%s-seed%d.pprof", d.name, seed))
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	gc0, cpu0 := cpuSeconds()
	ps := newRunner(d, panels, true).loop(seconds, 1)
	gc1, cpu1 := cpuSeconds()
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}

	res := &result{workload: d.name, seed: seed, traced: true, units: len(ps.units),
		attempted: base.attempted + ps.attempted, failed: base.failed + ps.failed,
		failures: append(base.failures, ps.failures...)}
	for u := range ps.first {
		for j := range ps.first[u] {
			if !simmetrics.Equal(ps.first[u][j], base.first[u][j]) {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("unit %d job %d: traced result differs from untraced", u, j))
			}
		}
	}
	rows := aggregateRows(ps.first)
	if err := res.checkHybrid(d, seed, rows); err != nil {
		return nil, err
	}

	var unitWall time.Duration
	for _, u := range ps.units {
		unitWall += u.wall
	}
	by, total, err := selfSamples(profPath)
	if err != nil {
		return nil, err
	}
	q, a := ps.quality, ps.all
	v := map[string]float64{
		"sim.events":             float64(q.events),
		"sim.events_per_request": ratio(float64(q.events), float64(q.arrived)),
		"sim.host_ns_per_event":  ratio(float64(a.runT), float64(a.events)),
		"sim.pending_peak":       float64(q.pendingPeak),

		"workload.requests":   float64(q.requests),
		"provision.submit_ns": ratio(float64(a.submitT), float64(a.timed)),

		"provision.accept_ratio":   ratio(float64(q.accepted), float64(q.arrived)),
		"provision.rejection_rate": rows[0].RejectionRate,
		"provision.decisions":      float64(q.alerts),
		"provision.decision_ns":    ratio(float64(a.alertT), float64(a.alerts)),

		"fluid.ticks":            float64(q.ticks),
		"fluid.fluid_tick_share": ratio(float64(q.ticks-q.tickEmits), float64(q.ticks)),
		"fluid.hybrid_tol_used":  res.hybridUsed,
		"fluid.panel_tol_used":   res.panelUsed,

		"mpc.decisions":               float64(q.cycles),
		"mpc.decision_p50_ms":         quantileMs(ps.cycles, 0.50),
		"mpc.decision_p95_ms":         quantileMs(ps.cycles, 0.95),
		"mpc.decision_samples":        float64(len(ps.cycles)),
		"mpc.candidates_per_decision": ratio(float64(q.lookaheads), float64(q.cycles)),
		"mpc.lookahead_ns":            ratio(float64(a.lookaheadT), float64(a.lookaheads)),
		"mpc.lookahead_share":         ratio(float64(a.lookaheadT), float64(a.spanT)),
		"experiment.snapshot_ns":      ratio(float64(a.snapshotT), float64(a.snapshots)),
		"experiment.restore_ns":       ratio(float64(a.restoreT), float64(a.restores)),
		"experiment.setup_ns":         ratio(float64(a.setupT), float64(a.jobs)),
		"experiment.finish_ns":        ratio(float64(a.finishT), float64(a.jobs)),
		"experiment.sweep_busy_share": ratio(float64(a.spanT), float64(d.workers)*float64(unitWall)),

		"fault.crashes":       float64(q.crashes),
		"fault.retries":       float64(q.retries),
		"fault.breaker_trips": float64(q.trips),
		"fault.shed":          float64(q.shed),

		"runtime.gc_cpu_share": ratio(gc1-gc0, cpu1-cpu0),
		"profile.samples":      float64(total),
		"trace.overhead":       ratio(float64(medianWall(ps.units)), float64(medianWall(base.units))),
	}
	program := total - by[harness]
	for _, l := range layers {
		v[l+".self_share"] = ratio(float64(by[l]), float64(program))
		v[l+".self_samples"] = float64(by[l])
	}
	v["harness.self_share"] = ratio(float64(by[harness]), float64(total))
	res.values = v
	res.notes = append(res.notes, "CPU profile: "+profPath)
	return res, nil
}

// description is what -describe prints.
type description struct {
	Env       map[string]any   `json:"env"`
	Workloads []map[string]any `json:"workloads"`
	EndToEnd  []map[string]any `json:"end_to_end"`
	PerLayer  []map[string]any `json:"per_layer"`
}

func printDescription(f *os.File) error {
	desc := description{Env: map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}}
	for _, d := range workloads {
		ps, err := d.panel(d.unitSeed(1, 0))
		if err != nil {
			return err
		}
		p, err := ps.Compile()
		if err != nil {
			return err
		}
		var pols []string
		for _, pol := range p.Policies[0] {
			pols = append(pols, pol.Name)
		}
		mode := p.Scenarios[0].Mode
		if mode == "" {
			mode = experiment.ModeExact
		}
		desc.Workloads = append(desc.Workloads, map[string]any{
			"name":          d.name,
			"why":           d.why,
			"scenario":      p.Scenarios[0].Name,
			"scale":         d.scale,
			"horizon_s":     d.horizonS,
			"mode":          mode,
			"policies":      pols,
			"workers":       d.workers,
			"quality_units": d.k,
			"loop":          d.loop,
			"seed_argument": "--seed n: unit i replicates at seed n*quality_units+i",
			"reported_row":  pols[0],
			"checks":        checksOf(d),
		})
	}
	for _, m := range endToEnd {
		desc.EndToEnd = append(desc.EndToEnd, map[string]any{
			"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound, "what": m.what})
	}
	for _, m := range perLayer {
		e := map[string]any{"name": m.name, "unit": m.unit, "better": m.better, "moves": m.moves}
		if m.what != "" {
			e["what"] = m.what
		}
		desc.PerLayer = append(desc.PerLayer, e)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(desc)
}

func checksOf(d *workloadDef) []string {
	c := []string{
		"request conservation per replication",
		"every repeat of a replication equals its first run",
		"traced results equal untraced (trace 1)",
	}
	if d.chaos {
		c = append(c, "experiment.CheckChaosInvariants per replication")
	}
	if d.hybrid {
		c = append(c, "Adaptive row within metrics.HybridTolerance of exact mode")
	}
	return c
}
