package occoll

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The progress engine.
//
// A non-blocking collective is issued with IBcast/IReduce/IAllReduce/
// IScatter/IGather/IAllGather, which returns a Request handle. Issuing
// validates the arguments, claims the next MPB lane round-robin, zeroes
// the lane's flags, runs the begin barrier, and then starts the lane
// protocol — the same pipelined k-ary state machine the blocking
// operation runs — but parks it at the first flag wait whose flag has not
// arrived yet instead of blocking the simulated core.
//
// The parked protocol is advanced only when the core calls Progress,
// Request.Test or Request.Wait (MPI-style: communication progresses
// inside library calls). Progress and Test poll the pending flag with
// rma.CallTryFlagGE — a failed probe costs no virtual time, a successful
// one charges the same single C^mpb_r(1) poll read the blocking path
// charges — and let the protocol run until its next unsatisfied wait.
// Wait switches the protocol's waits to rma.CallWaitFlagGE, which parks
// the simulated proc on the engine's run queue (internal/sim's indexed
// heap) until a peer's flag write signals the watched MPB line; the
// blocking collectives are exactly issue + Wait, which is why their
// simulated timings are byte-identical to the pre-engine
// run-to-completion loops.
//
// Each request's protocol is one resumable sim.Frame (reqFrame) whose
// program counter lives in the Request: issue, Progress, Test and Wait
// all run it with rma.Core.Exec, so it executes on whichever goroutine
// holds the control token, like every other protocol frame, and needs
// no goroutine of its own. A try-mode wait whose flag has not arrived
// ends the stint (the frame returns StepDone with its program counter
// still on the wait), and the next Exec retries that same wait.

// Request is the handle of one in-flight non-blocking collective. A
// request must be completed — observed by exactly one successful Test or
// one Wait — before the issuing core's body returns; the handle is dead
// afterwards, and reusing it panics (see Wait and Test).
type Request struct {
	x    *Collectives
	op   string
	lane *lane

	// The protocol program: a static per-operation phase list plus its
	// arguments, carried in the request (instead of a per-issue closure)
	// so a warmed issue loop allocates nothing here.
	prog  []phase
	tree  core.Tree
	addr  int
	lines int
	rop   ReduceOp

	// block selects how the frame's flag waits behave: false polls once
	// and parks the frame (issue, Test, Progress), true blocks the
	// simulated proc until the flag arrives (Wait, lane reuse).
	block    bool
	done     bool // protocol locally complete (lane drained)
	consumed bool // completion observed by Wait or a true Test

	// pendLine/pendSeq describe the flag wait the frame is parked on.
	pendLine int
	pendSeq  uint64

	// obsID is the request's async-span id when tracing is on (0 = off):
	// the span runs from issue to protocol completion, overlapping other
	// requests on the same core's track.
	obsID int64

	// The frame's resume state: phase index, program counter within the
	// phase, and the phase's loop positions — chunk ch, child or ring
	// step i, preorder position j over pre, and per-edge transfer
	// sequence tr.
	ph   int
	pc   uint8
	ch   int
	i, j int
	tr   uint64
	pre  []int
}

// Op reports the name of the collective the request was issued by (e.g.
// "IAllReduce"), for error messages and tests.
func (r *Request) Op() string { return r.op }

// issue starts a non-blocking collective: argument validation, lane
// claim, then the protocol frame — begin (flag zeroing + barrier) and
// the lane protocols — eagerly advanced to its first unsatisfied flag
// wait so communication starts at issue time.
func (x *Collectives) issue(op string, root, addr, lines int, rop ReduceOp, prog []phase) *Request {
	if x.finished {
		panic(fmt.Sprintf("occoll: %s issued after its core finished", op))
	}
	if !x.checkArgs(root, addr, lines) {
		// Trivial 1-core chip: the collective is a completed no-op.
		return &Request{x: x, op: op, done: true}
	}
	l := x.lanes[int(x.nissued)%len(x.lanes)]
	x.nissued++
	l.issues++
	if l.req != nil && !l.req.done {
		// The lane's previous collective is still in flight: drive it to
		// local completion before reusing the lane. Deterministic and
		// symmetric — every core drives its own previous request at the
		// same issue index — so all cores still agree on lane contents.
		l.req.drive()
	}
	r := x.newRequest()
	r.x, r.op, r.lane = x, op, l
	r.prog, r.addr, r.lines, r.rop = prog, addr, lines, rop
	if o := x.core.Obs(); o != nil {
		r.obsID = o.AsyncID()
		o.AsyncBegin(r.obsID, x.core.ID(), int64(x.core.Now()), "occoll", op,
			obs.Arg{Key: "lane", Val: int64(l.idx)}, obs.Arg{Key: "lines", Val: int64(lines)})
	}
	l.req = r
	r.tree = core.TreeFor(x.core.ID(), root, x.core.N(), x.cfg.K)
	x.compactReqs() // keep the list bounded by in-flight requests
	x.reqs = append(x.reqs, r)
	r.run(false)
	if o := x.core.Obs(); o != nil {
		o.Counter(x.core.ID(), int64(x.core.Now()), "occoll", "inflight", int64(x.Outstanding()))
	}
	return r
}

// newRequest returns a recycled (zeroed) request when one is free, else
// a fresh one; the caller fills x/op/lane.
func (x *Collectives) newRequest() *Request {
	if n := len(x.freeReqs); n > 0 {
		r := x.freeReqs[n-1]
		x.freeReqs[n-1] = nil
		x.freeReqs = x.freeReqs[:n-1]
		*r = Request{}
		return r
	}
	return &Request{}
}

// reqFreeListMax bounds the free list; a serial issue/Wait loop keeps it
// at one or two entries, so anything beyond a few lanes' worth is churn
// from an unusual burst and is left to the garbage collector.
const reqFreeListMax = 16

// compactReqs drops fully finished requests — protocol done AND handle
// consumed — from the outstanding list, bounding it by the number of
// requests still in flight or awaiting their Wait/Test, and recycles
// the dropped requests. Done-but-unconsumed requests are kept so Finish
// can flag them as leaked.
//
// A recycled request means a stale handle kept across a later issue
// aliases the new request, so the double-completion panic in
// checkUsable is only guaranteed until the core's next issue; the
// request contract (a handle is dead after its Wait or true Test)
// already forbids such use.
func (x *Collectives) compactReqs() {
	live := x.reqs[:0]
	for _, r := range x.reqs {
		if !r.done || !r.consumed {
			live = append(live, r)
		} else if r.lane != nil && len(x.freeReqs) < reqFreeListMax {
			x.freeReqs = append(x.freeReqs, r)
		}
	}
	for i := len(live); i < len(x.reqs); i++ {
		x.reqs[i] = nil
	}
	x.reqs = live
}

// run executes the request's frame from its program counter with the
// given wait behaviour: to completion when block, else until the first
// flag that has not arrived (or completion).
func (r *Request) run(block bool) {
	r.block = block
	r.x.core.Exec((*reqFrame)(r))
}

// reqFrame is a Request seen as its protocol's sim.Frame. The separate
// type keeps Step out of the public Request method set.
type reqFrame Request

// Step runs the request's phases from the saved program counter; a
// phase whose last act was a wait finishes on re-entry at pcEnd.
func (f *reqFrame) Step(*sim.Proc) sim.StepStatus {
	r := (*Request)(f)
	for r.ph < len(r.prog) {
		if r.pc != pcEnd {
			if st := r.stepPhase(r.prog[r.ph]); st != phaseDone {
				return st
			}
		}
		r.ph++
		r.pc, r.ch, r.i, r.j, r.tr, r.pre = 0, 0, 0, 0, 0, nil
	}
	r.finish()
	return sim.StepDone
}

// stepPhase steps phase ph from the saved program counter and returns
// the status to hand the driver, or phaseDone once the phase finished.
func (r *Request) stepPhase(ph phase) sim.StepStatus {
	switch ph {
	case phBegin:
		return r.stepBegin()
	case phBcast:
		return r.stepBcast(r.lines)
	case phBcastAll:
		return r.stepBcast(r.lines * r.tree.P)
	case phReduce:
		return r.stepReduce()
	case phRing:
		return r.stepRing()
	case phRecvSubtree:
		return r.stepRecvSubtree()
	case phStreamDown:
		return r.stepStreamDown()
	default: // phGather
		return r.stepGather()
	}
}

// phase is one step of a request's program: every program starts with
// phBegin, then runs its lane protocol — the fused operations run two
// in sequence on the same lane and tree.
type phase uint8

const (
	phBegin       phase = iota // flag zeroing + barrier (stepBegin)
	phBcast                    // bcastDown of the request's lines
	phBcastAll                 // bcastDown of all P blocks (AllGather's second half)
	phReduce                   // reduceUp
	phRing                     // ringAllGather
	phRecvSubtree              // recvSubtree (non-root Scatter half)
	phStreamDown               // streamDown
	phGather                   // gatherUp
)

// phaseDone is the status a phase stepper returns when its phase has
// finished; it never reaches the sim driver.
const phaseDone = sim.StepDone + 1

// pcEnd is the program counter of a phase whose final wait was pushed
// (see await); every phase's state constants stay below it.
const pcEnd uint8 = 255

// The per-operation programs (static, shared read-only by all requests).
var (
	progBcast     = []phase{phBegin, phBcast}
	progReduce    = []phase{phBegin, phReduce}
	progAllReduce = []phase{phBegin, phReduce, phBcast}
	progRing      = []phase{phBegin, phRing}
	progScatter   = []phase{phBegin, phRecvSubtree, phStreamDown}
	progGather    = []phase{phBegin, phGather}
	progAllGather = []phase{phBegin, phGather, phBcastAll}
)

// wait is the frames' flag-wait resume point. Blocking, it pushes an
// rma wait as a child; polling, it pushes the charged poll when the
// flag has already arrived. It reports whether a child was pushed (the
// stepper then returns StepCall). false means the flag has not arrived:
// the request is parked on (line, seq) and the stepper returns StepDone
// with its program counter still on the wait, so the next run retries it.
func (r *Request) wait(line int, seq uint64) bool {
	c := r.x.core
	if r.block {
		c.CallWaitFlagGE(line, seq)
		return true
	}
	if c.CallTryFlagGE(line, seq) {
		return true
	}
	r.pendLine, r.pendSeq = line, seq
	return false
}

// await is wait for a stepper's single-wait states: once the wait is
// pushed it moves to state next and returns StepCall; on a park it
// returns StepDone with the program counter unchanged.
func (r *Request) await(next uint8, line int, seq uint64) sim.StepStatus {
	if !r.wait(line, seq) {
		return sim.StepDone
	}
	r.pc = next
	return sim.StepCall
}

// finish marks the protocol complete and closes its trace span.
func (r *Request) finish() {
	r.done = true
	if o := r.x.core.Obs(); o != nil && r.obsID != 0 {
		now := int64(r.x.core.Now())
		o.AsyncEnd(r.obsID, r.x.core.ID(), now, "occoll", r.op)
		o.Counter(r.x.core.ID(), now, "occoll", "inflight", int64(r.x.Outstanding()))
	}
}

// drive runs the protocol to completion with blocking waits, without
// consuming the handle (used by Wait and by lane reuse at issue).
func (r *Request) drive() {
	if !r.done {
		r.run(true)
	}
}

// Wait drives the request's protocol to completion, blocking the
// simulated core on each pending flag (the proc parks on the scheduler
// and unparks when the flag write arrives), and consumes the handle.
// Waiting again — or after a true Test — panics: the handle is dead and a
// second completion would desynchronize the lane's flag sequence.
//
// Wait progresses only THIS request (a simulated proc can park on one
// flag line at a time), so with several requests in flight all cores
// must Wait them in the same order — mismatched completion orders
// deadlock the chip, exactly like mismatched blocking collectives, and
// the simulator reports it as a deadlock panic. Cores that cannot
// guarantee a symmetric order should poll with Test/Progress (which
// advance every outstanding request) and only Wait the last one.
func (r *Request) Wait() {
	r.checkUsable("Wait")
	r.drive()
	r.consumed = true
}

// Test advances every outstanding request of the issuing core without
// blocking (one Progress pass) and reports whether this request has
// completed, consuming the handle if so. Testing a handle already
// consumed by Wait or an earlier true Test panics.
func (r *Request) Test() bool {
	r.checkUsable("Test")
	if !r.done {
		r.x.Progress()
	}
	if r.done {
		r.consumed = true
		return true
	}
	return false
}

// checkUsable panics descriptively on the request-lifecycle misuses that
// would otherwise corrupt MPB state: completing a handle twice, or
// touching one after the issuing core's body returned.
func (r *Request) checkUsable(method string) {
	if r.x != nil && r.x.finished {
		panic(fmt.Sprintf("occoll: %s on %s request after its core finished", method, r.op))
	}
	if r.consumed {
		panic(fmt.Sprintf("occoll: %s on completed %s request (already observed by Wait or Test)", method, r.op))
	}
}

// Progress advances every outstanding request as far as it can go without
// blocking: each parked protocol re-polls its pending flag and, when the
// flag has arrived, runs until its next unsatisfied wait (or completion).
// Progress never blocks and — when nothing has arrived — costs no
// simulated time, so a core can interleave it with Compute slices to
// overlap communication with computation. Note that Progress alone never
// advances the virtual clock: a polling loop must advance time (compute)
// or Wait, or no peer's flag write can ever become visible.
func (x *Collectives) Progress() {
	if x.finished {
		panic("occoll: Progress after its core finished")
	}
	advanced := false
	for _, r := range x.reqs {
		if r.done {
			advanced = advanced || r.consumed
			continue
		}
		// Every live request is parked on (pendLine, pendSeq); probe the
		// flag for free before resuming the frame, which re-polls with
		// CallTryFlagGE and so charges the successful poll read.
		if !x.core.ProbeFlagGE(r.pendLine, r.pendSeq) {
			continue
		}
		if o := x.core.Obs(); o != nil {
			o.Instant(x.core.ID(), int64(x.core.Now()), "occoll", "progress.resume",
				obs.Arg{Key: "lane", Val: int64(r.lane.idx)}, obs.Arg{Key: "line", Val: int64(r.pendLine)})
		}
		r.run(false)
		advanced = advanced || r.done
	}
	if advanced {
		x.compactReqs()
	}
}

// Outstanding reports how many issued requests have not completed their
// protocol yet.
func (x *Collectives) Outstanding() int {
	n := 0
	for _, r := range x.reqs {
		if !r.done {
			n++
		}
	}
	return n
}

// Finish marks the core's body function as returned and enforces the
// request contract: every issued request must have been consumed by one
// Wait or one true Test. Leaking an in-flight request would leave peers
// waiting on this core's lane flags with nobody left to progress the
// protocol, and a completed-but-unobserved one is a latent bug, so
// Finish panics descriptively instead of letting the chip corrupt MPB
// state or deadlock obscurely. A parked protocol is only a program
// counter in its request, so nothing needs unwinding first. The public
// API calls Finish when the SPMD body returns; after Finish, any use of
// the engine or a request handle panics.
func (x *Collectives) Finish() {
	x.finished = true
	var leaked []string
	for _, r := range x.reqs {
		if !r.consumed {
			leaked = append(leaked, r.Op())
		}
	}
	if len(leaked) > 0 {
		panic(fmt.Sprintf("occoll: core %d finished with %d unconsumed non-blocking request(s) %v: complete every request with Wait or a true Test before returning",
			x.core.ID(), len(leaked), leaked))
	}
}
