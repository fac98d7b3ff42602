package sim

import (
	"math/rand"
	"testing"
)

// Inline machine execution must be indistinguishable from the goroutine
// scheduler — same traces, same clocks, same slow-path switch counts —
// across both handoff modes. These tests drive the same randomized
// workload handoff_test.go uses through a state-machine frame and
// through the plain goroutine body, and compare every event.

// stressCtx is the shared state of one stress run: the trace, the
// per-proc progress counters the blocking rendezvous reads, and the
// engine (frames signal through it).
type stressCtx struct {
	e     *Engine
	trace []stressEv
	vals  []uint64
	nproc int
	steps int
}

// stressStep performs one loop iteration's post-advance work (identical
// for the frame and the goroutine body): record the event, bump the
// counter, signal watchers. It reports whether step s is a rendezvous
// step and, if so, which peer/threshold to wait for.
func (c *stressCtx) stressStep(p *Proc, s int) (peer int, want uint64, blockNow bool) {
	c.trace = append(c.trace, stressEv{id: p.ID(), now: p.now, step: s})
	c.vals[p.ID()]++
	c.e.Signal(WatchKey{Space: 0, Line: p.ID()}, p.now)
	if s%8 != 3 {
		return 0, 0, false
	}
	peer = (p.ID() + 1) % c.nproc
	want = c.vals[p.ID()] - 1
	if want > uint64(c.steps) {
		want = uint64(c.steps)
	}
	return peer, want, true
}

// stressCond is the frame's reusable rendezvous condition (the machine
// form of the closure the goroutine body passes to Block).
type stressCond struct {
	c    *stressCtx
	peer int
	want uint64
}

func (sc *stressCond) Holds() bool { return sc.c.vals[sc.peer] >= sc.want }

// stressFrame is the state-machine transcription of runStress's body:
// pc 0 advances, pc 1 records/signals and optionally blocks, matching
// the goroutine form resume point for resume point.
type stressFrame struct {
	c    *stressCtx
	rng  *rand.Rand
	s    int
	pc   uint8
	cond stressCond
}

func (f *stressFrame) Step(p *Proc) StepStatus {
	for {
		switch f.pc {
		case 0:
			if f.s == f.c.steps {
				return StepDone
			}
			p.MachineAdvance(Duration(f.rng.Intn(5)))
			f.pc = 1
			return StepYield
		default:
			peer, want, block := f.c.stressStep(p, f.s)
			f.s++
			f.pc = 0
			if block {
				f.cond = stressCond{c: f.c, peer: peer, want: want}
				if f.cond.Holds() {
					// BlockCond on a satisfied condition still yields
					// (subject to the keepRunning fast path).
					return StepYield
				}
				p.MachineBlock(WatchKey{Space: 0, Line: peer}, &f.cond)
				return StepBlock
			}
		}
	}
}

// runMachineStress executes the handoff_test.go stress workload in the
// requested execution × scheduling mode and returns the trace and
// slow-path switch count. frames runs the body as an Exec'd frame
// (stepped by token holders when inline, on the body goroutine when
// not); otherwise the blocking form runs (Advance/BlockCond directly).
func runMachineStress(seed int64, nproc, steps int, inline, handoff, frames bool) ([]stressEv, int64) {
	prevH := SetDirectHandoff(handoff)
	defer SetDirectHandoff(prevH)
	prevI := SetInline(inline)
	defer SetInline(prevI)

	e := NewEngine(nproc)
	c := &stressCtx{e: e, vals: make([]uint64, nproc), nproc: nproc, steps: steps}
	fs := make([]stressFrame, nproc)
	conds := make([]stressCond, nproc)
	e.Run(func(p *Proc) {
		rng := rand.New(rand.NewSource(seed + int64(p.ID())*7919))
		if frames {
			fs[p.ID()] = stressFrame{c: c, rng: rng}
			p.Exec(&fs[p.ID()])
			return
		}
		for s := 0; s < steps; s++ {
			p.Advance(Duration(rng.Intn(5)))
			peer, want, block := c.stressStep(p, s)
			if block {
				conds[p.ID()] = stressCond{c: c, peer: peer, want: want}
				p.BlockCond(WatchKey{Space: 0, Line: peer}, &conds[p.ID()])
			}
		}
	})
	return c.trace, e.Switches()
}

// TestMachineEquivalenceMatrix asserts every execution × scheduling
// mode — {inline frames, goroutine-stepped frames, blocking body} ×
// {handoff, classic} — produces identical traces and slow-path switch
// counts on randomized workloads.
func TestMachineEquivalenceMatrix(t *testing.T) {
	type mode struct {
		name                    string
		inline, handoff, frames bool
	}
	modes := []mode{
		{"inline+handoff", true, true, true},
		{"inline+classic", true, false, true},
		{"goroutine-frames+handoff", false, true, true},
		{"goroutine-frames+classic", false, false, true},
		{"goroutine+handoff", false, true, false},
		{"goroutine+classic", false, false, false},
	}
	for seed := int64(1); seed <= 6; seed++ {
		m0 := modes[0]
		ref, refSw := runMachineStress(seed, 9, 120, m0.inline, m0.handoff, m0.frames)
		for _, m := range modes[1:] {
			got, gotSw := runMachineStress(seed, 9, 120, m.inline, m.handoff, m.frames)
			if len(got) != len(ref) {
				t.Fatalf("seed %d: %s trace length %d, %s %d",
					seed, modes[0].name, len(ref), m.name, len(got))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d: trace diverges at event %d: %+v (%s) vs %+v (%s)",
						seed, i, ref[i], modes[0].name, got[i], m.name)
				}
			}
			if gotSw != refSw {
				t.Errorf("seed %d: switch count %d (%s) vs %d (%s)",
					seed, refSw, modes[0].name, gotSw, m.name)
			}
		}
	}
}

// countFrame advances n times by fixed durations, bumping a counter.
type countFrame struct {
	n, s  int
	d     Duration
	count *int
}

func (f *countFrame) Step(p *Proc) StepStatus {
	if f.s == f.n {
		return StepDone
	}
	f.s++
	*f.count++
	p.MachineAdvance(f.d)
	return StepYield
}

// callerFrame Calls a child countFrame and then runs one more advance
// of its own, exercising the frame stack push/pop.
type callerFrame struct {
	pc    uint8
	child countFrame
	count *int
}

func (f *callerFrame) Step(p *Proc) StepStatus {
	switch f.pc {
	case 0:
		f.pc = 1
		f.child = countFrame{n: 3, d: 2, count: f.count}
		p.Call(&f.child)
		return StepCall
	default:
		*f.count += 100
		return StepDone
	}
}

// TestMachineCall pins nested frames: the parent resumes only after the
// child completes, and the clock reflects both frames' advances.
func TestMachineCall(t *testing.T) {
	e := NewEngine(2)
	counts := make([]int, 2)
	frames := make([]callerFrame, 2)
	var finals [2]Time
	e.Run(func(p *Proc) {
		frames[p.ID()] = callerFrame{count: &counts[p.ID()]}
		p.Exec(&frames[p.ID()])
		finals[p.ID()] = p.Now()
	})
	for i := 0; i < 2; i++ {
		if counts[i] != 103 {
			t.Errorf("proc %d count %d, want 103 (3 child steps + parent tail)", i, counts[i])
		}
		if finals[i] != 6 {
			t.Errorf("proc %d final clock %v, want 6", i, finals[i])
		}
	}
}

// panicFrame panics at step s of n advances.
type panicFrame struct {
	n, s, at int
}

func (f *panicFrame) Step(p *Proc) StepStatus {
	if f.s == f.at {
		panic("frame boom")
	}
	if f.s == f.n {
		return StepDone
	}
	f.s++
	p.MachineAdvance(1)
	return StepYield
}

// TestMachinePanic asserts a panicking frame surfaces through Run in
// both scheduling modes, whether the panic fires on the proc's own
// goroutine (first step, inside Exec) or on a foreign token holder's
// (a later step, reached via the drain loop).
func TestMachinePanic(t *testing.T) {
	for _, handoff := range []bool{true, false} {
		for _, at := range []int{0, 3} {
			func() {
				prev := SetDirectHandoff(handoff)
				defer SetDirectHandoff(prev)
				defer func() {
					if r := recover(); r != "frame boom" {
						t.Errorf("handoff=%v at=%d: panic = %v, want frame boom", handoff, at, r)
					}
				}()
				e := NewEngine(3)
				frames := make([]panicFrame, 3)
				e.Run(func(p *Proc) {
					// Proc 1 panics; the others advance long enough that
					// a foreign goroutine is holding the token when the
					// late panic fires.
					at := at
					if p.ID() != 1 {
						at = -1
					}
					frames[p.ID()] = panicFrame{n: 6, at: at}
					p.Exec(&frames[p.ID()])
				})
			}()
		}
	}
}

// foreverFrame blocks on a condition that never holds.
type foreverFrame struct{ blocked bool }

type neverCond struct{}

func (neverCond) Holds() bool { return false }

func (f *foreverFrame) Step(p *Proc) StepStatus {
	if f.blocked {
		panic("sim: woken from a never-true condition")
	}
	f.blocked = true
	p.MachineBlock(WatchKey{Space: 1, Line: 1}, neverCond{})
	return StepBlock
}

// TestMachineDeadlock asserts a frame blocking forever produces the
// standard deadlock report.
func TestMachineDeadlock(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("machine deadlock not detected")
		}
	}()
	e := NewEngine(2)
	var frames [2]foreverFrame
	e.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Exec(&frames[0])
		}
	})
}

// TestMachineExecAllocFree pins the inline hot path: a warmed
// persistent engine running Exec'd frames allocates nothing per
// Reset+Run cycle — the frame stack, run queue and watcher buckets all
// reuse their backing arrays.
func TestMachineExecAllocFree(t *testing.T) {
	e := NewEngine(4)
	e.SetPersistent(true)
	defer e.Shutdown()
	count := 0
	frames := make([]countFrame, 4)
	body := func(p *Proc) {
		frames[p.ID()] = countFrame{n: 50, d: Duration(1 + p.ID()%3), count: &count}
		p.Exec(&frames[p.ID()])
	}
	e.Run(body) // warm: spawn goroutines, grow heap and frame stacks
	allocs := testing.AllocsPerRun(20, func() {
		if !e.Reset() {
			t.Fatal("Reset refused")
		}
		e.Run(body)
	})
	if allocs > 0 {
		t.Errorf("Reset+Run of warmed inline machines allocates %.1f times per cycle, want 0", allocs)
	}
}
