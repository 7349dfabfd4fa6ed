package workload

import (
	"slices"
	"testing"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// The batch walker holds pointer-free (Arrival, Service, ID) records and
// builds each Request only at emission. These tests pin its emitted
// stream — every field, in order — to an obviously correct reference:
// the same requests sorted by slices.SortFunc(requestCmp).

// checkStream fails unless got equals want sorted by requestCmp.
func checkStream(t *testing.T, got, want []Request) {
	t.Helper()
	ref := slices.Clone(want)
	slices.SortFunc(ref, requestCmp)
	if len(got) != len(ref) {
		t.Fatalf("emitted %d requests, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], ref[i])
		}
	}
}

// tiedBatch builds n records in scrambled ID order whose arrivals take
// only a few distinct values in [lo, lo+width), the bounds included, so
// most records tie on arrival and order by ID alone.
func tiedBatch(r *stats.RNG, n int, lo, width float64) ([]arrival, []Request) {
	levels := []float64{lo, lo + width/3, lo + width/2, lo + width*(1-1e-15)}
	ids := r.Perm(n)
	batch := make([]arrival, n)
	reqs := make([]Request, n)
	for i := range batch {
		a := arrival{
			Arrival: levels[r.IntN(len(levels))],
			Service: r.Float64(),
			ID:      uint64(ids[i]) + 1,
		}
		batch[i] = a
		reqs[i] = Request{ID: a.ID, Arrival: a.Arrival, Service: a.Service}
	}
	return batch, reqs
}

// Batches under 32 records take the comparison sort; larger ones the
// bucket scatter and insertion repair. Both must emit the reference
// order under heavy arrival ties.
func TestWalkerTiedBatchesMatchReference(t *testing.T) {
	r := stats.NewRNG(7)
	for _, n := range []int{1, 2, 5, 31, 32, 33, 100, 1000} {
		s := sim.New()
		var got []Request
		wk := newBatchWalker(s, func(q Request) { got = append(got, q) })
		batch, want := tiedBatch(r, n, 60, 60)
		wk.startUniform(batch, 60, 60)
		s.Run()
		checkStream(t, got, want)
	}
}

// webReference mirrors webTicker.Emit's draws for a sequence of
// (now, n) ticks: it returns every request the ticker generates, in
// generation order.
func webReference(w *Web, seed uint64, ticks [][2]float64) []Request {
	r := stats.NewRNG(seed)
	arr, svc := r.Split("web/arrivals"), r.Split("web/service")
	service := stats.Scaled{S: stats.Uniform{Min: 1, Max: 1 + w.Jitter}, Factor: w.BaseService}
	var out []Request
	for _, tk := range ticks {
		for i := 0; i < int(tk[1]); i++ {
			at := tk[0] + arr.Float64()*w.Interval
			out = append(out, Request{ID: uint64(len(out)) + 1, Arrival: at, Service: service.Sample(svc)})
		}
	}
	return out
}

// emitAt schedules tk.Emit(now, n) for every (now, n) tick.
func emitAt(s *sim.Sim, tk Ticker, ticks [][2]float64) {
	for _, x := range ticks {
		now, n := x[0], int(x[1])
		s.At(now, func() { tk.Emit(now, n) })
	}
}

// Ticker-driven web batches: small (comparison path) and large (bucket
// path) ticks, and ticks that start while the previous batch is still
// draining, which parks it in prevs and merges two walkers through the
// kernel.
func TestWalkerWebTicksMatchReference(t *testing.T) {
	cases := []struct {
		name  string
		ticks [][2]float64
	}{
		{"small", [][2]float64{{0, 7}, {60, 31}, {120, 1}}},
		{"large", [][2]float64{{0, 500}, {60, 32}, {120, 2000}}},
		{"overlap", [][2]float64{{0, 400}, {20, 10}, {30, 300}, {90, 50}}},
	}
	for _, c := range cases {
		ticks := c.ticks
		t.Run(c.name, func(t *testing.T) {
			w := NewWeb(1)
			s := sim.New()
			var got []Request
			tk := w.NewTicker(s, stats.NewRNG(3), func(q Request) { got = append(got, q) })
			emitAt(s, tk, ticks)
			s.Run()
			checkStream(t, got, webReference(w, 3, ticks))
		})
	}
}

// A snapshot taken mid-batch — here with a superseded walker still
// draining beside the current one — and restored must replay the rest
// of the stream exactly.
func TestWalkerSnapshotRestoreMidBatch(t *testing.T) {
	ticks := [][2]float64{{0, 400}, {30, 300}}
	w := NewWeb(1)
	s := sim.New()
	var got []Request
	tk := w.NewTicker(s, stats.NewRNG(5), func(q Request) { got = append(got, q) })
	emitAt(s, tk, ticks)
	s.RunUntil(45)
	if len(tk.(*webTicker).prevs) == 0 {
		t.Fatal("no superseded walker at the snapshot; the case lost its point")
	}
	var ks sim.Snapshot
	s.Snapshot(&ks)
	store := w.Snapshot(nil)
	mark := len(got)

	s.Run()
	first := slices.Clone(got)
	want := webReference(w, 5, ticks)
	checkStream(t, first, want)

	s.Restore(&ks)
	w.Restore(store)
	got = got[:mark]
	s.Run()
	checkStream(t, got, want)
}

// Trace replay indexes the caller's requests: Class, Deadline and
// Client survive, and ties on (Arrival, ID) — duplicates included —
// come out exactly as sorting a copy of the trace would put them.
func TestWalkerTraceReplayMatchesReference(t *testing.T) {
	r := stats.NewRNG(11)
	clients := []string{"", "a", "bb"}
	reqs := make([]Request, 300)
	for i := range reqs {
		reqs[i] = Request{
			ID:       uint64(r.IntN(100)),
			Arrival:  float64(r.IntN(20)),
			Service:  r.Float64(),
			Class:    r.IntN(3),
			Deadline: float64(r.IntN(50)),
			Client:   clients[r.IntN(len(clients))],
		}
	}
	orig := slices.Clone(reqs)
	s := sim.New()
	var got []Request
	ts := &TraceSource{Requests: reqs}
	ts.Start(s, stats.NewRNG(1), func(q Request) { got = append(got, q) })
	s.Run()
	checkStream(t, got, reqs)
	if !slices.Equal(reqs, orig) {
		t.Fatal("replay reordered or modified the caller's requests")
	}
}
