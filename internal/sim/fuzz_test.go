package sim

import (
	"math"
	"testing"

	"vmprov/internal/stats"
)

// This file checks the arena-backed 4-ary heap kernel against a naive
// sorted-slice reference scheduler: random interleavings of At/Schedule/
// Cancel/RunUntil/Step must produce identical firing orders, clock
// values, pending counts, and cancel results. The reference has no arena,
// no free list, and no heap — just a linear-scan minimum over (time,
// seq) — so any disagreement implicates the kernel's clever parts,
// including cancel-then-reuse aliasing of pooled event slots.

// refEvent is one pending event of the reference scheduler.
type refEvent struct {
	t   float64
	seq uint64
	id  int
}

// refSched is the obviously-correct scheduler: an unsorted slice popped
// by linear minimum scan.
type refSched struct {
	now    float64
	seq    uint64
	events []refEvent
}

func (r *refSched) insert(t float64, id int) uint64 {
	seq := r.seq
	r.seq++
	r.events = append(r.events, refEvent{t: t, seq: seq, id: id})
	return seq
}

// cancel removes the pending event with the given insertion seq,
// reporting whether it was still pending.
func (r *refSched) cancel(seq uint64) bool {
	for i, e := range r.events {
		if e.seq == seq {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return true
		}
	}
	return false
}

// popMin removes and returns the (time, seq)-minimal event.
func (r *refSched) popMin() refEvent {
	best := 0
	for i := 1; i < len(r.events); i++ {
		e, b := r.events[i], r.events[best]
		if e.t < b.t || (e.t == b.t && e.seq < b.seq) {
			best = i
		}
	}
	e := r.events[best]
	r.events = append(r.events[:best], r.events[best+1:]...)
	return e
}

// child spawning rule shared by both schedulers: firing an event whose id
// is divisible by 5 schedules one child, exercising scheduling-during-run
// and arena-slot reuse while an event is mid-fire. Child ids are never
// divisible by 5, bounding the recursion.
func childOf(id int) (childID int, delay float64) {
	return id*31 + 7, float64(id%13+1) / 3
}

func spawnsChild(id int) bool { return id != 0 && id%5 == 0 }

type firing struct {
	id int
	t  float64
}

// runUntil drains the reference up to time t (inclusive), applying the
// child rule, and returns the firings. Mirrors Sim.RunUntil, including
// the advance of the clock to a finite t.
func (r *refSched) runUntil(t float64, fired *[]firing) {
	for len(r.events) > 0 {
		min := 0
		for i := 1; i < len(r.events); i++ {
			e, b := r.events[i], r.events[min]
			if e.t < b.t || (e.t == b.t && e.seq < b.seq) {
				min = i
			}
		}
		if r.events[min].t > t {
			break
		}
		e := r.popMin()
		r.now = e.t
		*fired = append(*fired, firing{id: e.id, t: e.t})
		if spawnsChild(e.id) {
			cid, d := childOf(e.id)
			r.insert(r.now+d, cid)
		}
	}
	if !math.IsInf(t, 1) && t > r.now {
		r.now = t
	}
}

// step fires exactly one reference event, reporting whether it did.
func (r *refSched) step(fired *[]firing) bool {
	if len(r.events) == 0 {
		return false
	}
	e := r.popMin()
	r.now = e.t
	*fired = append(*fired, firing{id: e.id, t: e.t})
	if spawnsChild(e.id) {
		cid, d := childOf(e.id)
		r.insert(r.now+d, cid)
	}
	return true
}

// checkModel drives both schedulers through the op sequence encoded in
// data and fails on any divergence. Each op consumes three bytes:
// (opcode, x, y).
func checkModel(t *testing.T, data []byte) {
	t.Helper()
	s := New()
	ref := &refSched{}

	var gotFired, wantFired []firing
	var handles []Event  // kernel handles of top-level events, by creation order
	var refSeqs []uint64 // matching reference seqs

	// fireFn records a kernel firing and applies the child rule. Declared
	// as a variable so the child closure can recurse.
	var fireFn func(id int) func()
	fireFn = func(id int) func() {
		return func() {
			gotFired = append(gotFired, firing{id: id, t: s.Now()})
			if spawnsChild(id) {
				cid, d := childOf(id)
				s.Schedule(d, fireFn(cid))
			}
		}
	}

	sync := func(op int) {
		if s.Now() != ref.now {
			t.Fatalf("op %d: clock diverged: kernel %v, reference %v", op, s.Now(), ref.now)
		}
		if s.Pending() != len(ref.events) {
			t.Fatalf("op %d: pending diverged: kernel %d, reference %d", op, s.Pending(), len(ref.events))
		}
		if len(gotFired) != len(wantFired) {
			t.Fatalf("op %d: fired %d events, reference fired %d", op, len(gotFired), len(wantFired))
		}
		for i := range gotFired {
			if gotFired[i] != wantFired[i] {
				t.Fatalf("op %d: firing %d diverged: kernel %+v, reference %+v",
					op, i, gotFired[i], wantFired[i])
			}
		}
	}

	nextID := 1
	for op := 0; op+2 < len(data); op += 3 {
		code, x, y := data[op]%8, float64(data[op+1]), int(data[op+2])
		switch code {
		case 0, 1: // schedule a fresh event at now + x/8
			id := nextID
			nextID++
			at := s.Now() + x/8
			handles = append(handles, s.At(at, fireFn(id)))
			refSeqs = append(refSeqs, ref.insert(at, id))
		case 2: // schedule at the current instant (same-time tie-break)
			id := nextID
			nextID++
			handles = append(handles, s.Schedule(0, fireFn(id)))
			refSeqs = append(refSeqs, ref.insert(ref.now, id))
		case 3, 6: // cancel an arbitrary handle, possibly stale or repeated
			if len(handles) == 0 {
				continue
			}
			k := y % len(handles)
			got := s.Cancel(handles[k])
			want := ref.cancel(refSeqs[k])
			if got != want {
				t.Fatalf("op %d: Cancel(handle %d) = %v, reference %v", op, k, got, want)
			}
		case 4: // partial drain
			limit := s.Now() + x/4
			s.RunUntil(limit)
			ref.runUntil(limit, &wantFired)
		case 5: // single step
			got := s.Step()
			want := ref.step(&wantFired)
			if got != want {
				t.Fatalf("op %d: Step() = %v, reference %v", op, got, want)
			}
		case 7: // far-future event, stresses heap width across drains
			id := nextID
			nextID++
			at := s.Now() + 1000 + x
			handles = append(handles, s.At(at, fireFn(id)))
			refSeqs = append(refSeqs, ref.insert(at, id))
		}
		sync(op)
	}

	// Drain both completely and compare the full firing history.
	s.Run()
	ref.runUntil(math.Inf(1), &wantFired)
	sync(len(data))
}

// FuzzSimHeap fuzzes random op interleavings against the reference
// scheduler. The seed corpus covers the regressions the arena rewrite
// could plausibly introduce: cancel of a reused slot, drain-then-refill,
// same-time tie-breaks, and repeated cancels of stale handles.
func FuzzSimHeap(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 16, 0, 4, 255, 0})                      // schedule, schedule, drain
	f.Add([]byte{0, 8, 0, 3, 0, 0, 0, 8, 0, 4, 255, 0})              // cancel then reuse slot
	f.Add([]byte{2, 0, 0, 2, 0, 0, 2, 0, 0, 4, 0, 0})                // same-time tie-breaks
	f.Add([]byte{0, 40, 0, 4, 1, 0, 3, 0, 0, 3, 0, 0, 4, 255, 0})    // stale double-cancel
	f.Add([]byte{7, 1, 0, 0, 8, 0, 5, 0, 0, 5, 0, 0, 6, 0, 1})       // step through, cancel far event
	f.Add([]byte{0, 25, 0, 0, 25, 0, 0, 25, 0, 3, 0, 1, 4, 26, 0})   // cancel middle of equal times
	f.Add([]byte{1, 5, 0, 4, 2, 0, 1, 5, 0, 4, 2, 0, 1, 5, 0, 4, 2}) // drain/refill cycles
	// Tie-heavy tapes: pending sets whose times take at most four values,
	// sized to end on a full child group (5 = 1+4, 21 = 1+4+16) and on
	// partial ones (7, 13, 64), so sift-down's four-child tournament and
	// its partial-group scan both decide mostly on seq.
	for i, n := range []int{5, 7, 13, 21, 64} {
		f.Add(tieTape(n, uint64(i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			t.Skip("cap op count: the reference is quadratic")
		}
		checkModel(t, data)
	})
}

// TestHeapVsReferenceRandom runs the same kernel-vs-reference model over
// seeded random op tapes on every `go test` run, so the lockstep checking
// does not depend on the fuzz engine being invoked.
func TestHeapVsReferenceRandom(t *testing.T) {
	iterations := 300
	if testing.Short() {
		iterations = 50
	}
	r := stats.NewRNG(1)
	for it := 0; it < iterations; it++ {
		n := 6 + int(r.Uint64()%120)
		data := make([]byte, 3*n)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		checkModel(t, data)
	}
}

// tieTape returns an op tape that schedules n events at no more than four
// distinct times (now+0..3, a quarter of them via the same-instant op),
// then drains them by single steps with an occasional cancel and ends
// with a partial drain — a pending set of n events whose heap compares
// are decided mostly by insertion sequence.
func tieTape(n int, seed uint64) []byte {
	r := stats.NewRNG(seed)
	data := make([]byte, 0, 3*(n+n/2+1))
	for i := 0; i < n; i++ {
		if r.IntN(4) == 0 {
			data = append(data, 2, 0, 0)
		} else {
			data = append(data, 0, byte(8*r.IntN(4)), 0)
		}
	}
	for i := 0; i < n/2; i++ {
		if r.IntN(8) == 0 {
			data = append(data, 3, 0, byte(r.IntN(256)))
		} else {
			data = append(data, 5, 0, 0)
		}
	}
	return append(data, 4, 8, 0)
}

// TestHeapVsReferenceTies checks the kernel against the reference on
// tie-heavy tapes at every pending-set size from 1 to 300, crossing both
// full and partial groups of four children at every heap depth.
func TestHeapVsReferenceTies(t *testing.T) {
	for n := 1; n <= 300; n++ {
		checkModel(t, tieTape(n, uint64(n)))
	}
}
