package sim

import "repro/internal/obs"

// inlineExec is the package-wide default for newly started runs: when
// true, protocol sections that expose explicit resume points (see
// Proc.Exec) run as resumable state machines stepped directly on
// whatever goroutine holds the control token — no channel send, no
// goroutine park per yield — and every machine runnable at the head
// timestamp drains in one scheduler pass. When false, Exec steps the
// frames on the proc's own goroutine under the goroutine-per-proc
// scheduler, which stays around as the executable spec. Both modes
// produce byte-identical simulated timings and switch counts —
// SetInline exists so the equivalence suite can prove it.
var inlineExec = true

// SetInline sets the execution mode every engine latches at the start
// of its next Run (pooled engines included) and returns the previous
// setting. Simulated timings are identical either way; only wall-clock
// cost differs. It is a test knob, not a tuning parameter — do not
// flip it concurrently with running simulations.
func SetInline(enabled bool) (prev bool) {
	prev = inlineExec
	inlineExec = enabled
	return
}

// InlineEnabled reports the current package-wide inline default.
func InlineEnabled() bool { return inlineExec }

// StepStatus is what a Frame.Step reports back to the machine driver:
// how the section's clock position changed and whether it is done.
type StepStatus uint8

const (
	// StepYield means the frame advanced the proc's clock (via
	// MachineAdvance/MachineAdvanceTo) and another proc may now be due.
	// Equivalent to the yield inside Advance/AdvanceTo: the same
	// keepRunning fast path applies, so a yield that would hand control
	// straight back is elided without touching the run queue.
	StepYield StepStatus = iota
	// StepBlock means the frame registered a watcher via MachineBlock
	// and the proc must sleep until a Signal wakes it. The next Step
	// call observes the post-wake clock.
	StepBlock
	// StepCall means the frame pushed a child frame with Proc.Call; the
	// driver steps the child to completion before resuming this frame.
	StepCall
	// StepDone means the frame finished; the driver pops it.
	StepDone
)

// Frame is one resumable section of a protocol: a state machine whose
// Step method runs the code between two resume points and reports how
// it left the clock. Step always executes on the goroutine holding the
// control token (the engine's, or another proc's in direct-handoff
// mode) — never concurrently with any other simulation code — so frame
// state needs no synchronization, but Step must only touch simulation
// state through p and the usual token-serialized structures.
type Frame interface {
	Step(p *Proc) StepStatus
}

// InlineActive reports whether the engine driving p latched inline
// execution for the current run. Protocol layers that keep a blocking
// body beside their frame branch on it.
func (p *Proc) InlineActive() bool { return p.eng.inline }

// Call pushes a child frame onto the proc's machine stack. Only valid
// from within a Frame.Step that then returns StepCall.
func (p *Proc) Call(f Frame) { p.frames = append(p.frames, f) }

// Exec runs f as a machine section of the calling proc's body. It
// returns when the frame (and every child it Calls) has completed,
// with the proc's clock wherever the frame left it — exactly as if the
// body had executed the equivalent blocking code. It works in both
// execution modes:
//
//   - inline: if the whole section completes without the scheduler
//     choosing another proc, Exec costs zero channel operations;
//     otherwise the body goroutine parks once for the entire section
//     (instead of once per yield) while the section's remaining steps
//     run on whichever goroutine holds the token.
//   - goroutine (SetInline(false)): the body goroutine steps the frames
//     itself and parks at every resume point the blocking code would —
//     doYield on StepYield, blockOn's park and wake on StepBlock — so
//     the same frames run under the executable-spec scheduler.
//
// Exec must not be called from within a frame — frames nest with Call.
func (p *Proc) Exec(f Frame) {
	e := p.eng
	if len(p.frames) != 0 {
		panic("sim: Exec from within a machine; nest frames with Call")
	}
	p.frames = append(p.frames, f)
	if !e.inline {
		p.stepOnBody()
		return
	}
	st := p.runMachine(true)
	if st == machineDone {
		// Section completed without ever losing the token.
		return
	}
	// The machine yielded or blocked: hand the token onward and park
	// this goroutine until the machine's last frame completes. From
	// here on other token holders step the machine via nextToken.
	if e.handoff {
		var next *Proc
		if st == machineYield {
			next = e.tokenFrom(p)
		} else {
			next = e.nextToken()
		}
		if next == p {
			// The drain stepped the procs ahead of p inline — including
			// p's own remaining frames — and p's section is complete:
			// the token never left this goroutine, so just continue.
			return
		}
		if next != nil {
			next.resume <- false
		} else {
			e.engch <- nil
		}
	} else {
		if st == machineYield {
			e.runq.push(p)
		}
		e.engch <- nil
	}
	<-p.resume
}

// stepOnBody is Exec's goroutine-mode driver: it steps the frame stack
// on the proc's own goroutine, parking it wherever the blocking form of
// the section would park. Schedulers never step these frames (drainToken
// only steps machines in inline mode), so the stack stays put while the
// goroutine is parked.
func (p *Proc) stepOnBody() {
	for {
		switch p.frames[len(p.frames)-1].Step(p) {
		case StepCall:
			// Child pushed; next iteration steps it.
		case StepDone:
			n := len(p.frames) - 1
			p.frames[n] = nil
			p.frames = p.frames[:n]
			if n == 0 {
				return
			}
		case StepYield:
			p.doYield()
		case StepBlock:
			// MachineBlock registered the watcher and emitted the block
			// instant; park and emit the wake instant, as blockOn does.
			p.slowYield()
			p.wokeMachine = false
			if o := p.eng.obs; o != nil {
				o.Instant(p.id, int64(p.now), "sim", "wake", obs.Arg{}, obs.Arg{})
			}
		}
	}
}

// machineStatus is how a runMachine stint ended: the section completed
// (or a foreign-goroutine panic was accounted), the proc yielded to an
// earlier proc and must re-enter the run queue, or it blocked on a
// watch key and will be re-queued by the waking Signal.
type machineStatus uint8

const (
	machineDone machineStatus = iota
	machineYield
	machineBlock
)

// runMachine steps the proc's frame stack until the section completes
// or the proc must give up the control token. On machineYield the proc
// is NOT re-queued — the caller fuses the re-queue with its next pop
// (runQueue.pushPop) — so every non-Done status must be followed by the
// matching queue operation. own says the calling goroutine is the
// proc's own body goroutine (the Exec entry path), which determines how
// a panicking frame is routed — see stepTop. A foreign-goroutine panic
// is recorded like a body panic and reported as machineDone so the
// caller unwinds without touching the dead proc again.
// runMachine steps the proc's frame stack until the section completes
// or the proc must give up the token. A panic on the proc's own body
// goroutine (own) propagates so it unwinds through Exec into runBody's
// deferred recover — identical accounting to a body panic. A panic
// while stepping a foreign proc's frames cannot reach that proc's
// (parked) goroutine, so one deferred recover per stint (not per step)
// accounts it exactly as runBody would: mark the proc done, record the
// panic for Run to re-raise, report machineDone; the parked goroutine
// is abandoned, as any panicked run's goroutines are.
func (p *Proc) runMachine(own bool) (st machineStatus) {
	if own {
		return p.machineSteps()
	}
	defer func() {
		if r := recover(); r != nil {
			p.eng.panicVal = r
			if o := p.eng.obs; o != nil {
				o.Instant(p.id, int64(p.now), "sim", "done", obs.Arg{}, obs.Arg{})
			}
			p.state = stateDone
			p.eng.finished++
			st = machineDone
		}
	}()
	return p.machineSteps()
}

// machineSteps is runMachine's stepping loop, with panics unhandled.
func (p *Proc) machineSteps() machineStatus {
	e := p.eng
	if p.wokeMachine {
		// Mirror blockOn's post-wake instant: the goroutine form emits
		// it when the proc resumes after a blocking wait.
		p.wokeMachine = false
		if o := e.obs; o != nil {
			o.Instant(p.id, int64(p.now), "sim", "wake", obs.Arg{}, obs.Arg{})
		}
	}
	for {
		switch p.frames[len(p.frames)-1].Step(p) {
		case StepCall:
			// Child pushed; next iteration steps it.
		case StepDone:
			n := len(p.frames) - 1
			p.frames[n] = nil
			p.frames = p.frames[:n]
			if n == 0 {
				return machineDone
			}
		case StepYield:
			if p.keepRunning() {
				continue
			}
			e.switches++
			return machineYield
		case StepBlock:
			e.switches++
			return machineBlock
		}
	}
}

// MachineAdvance moves the clock forward by d without yielding: the
// frame returns StepYield and the machine driver applies the same
// keepRunning fast path Advance uses. d must be non-negative.
func (p *Proc) MachineAdvance(d Duration) {
	if d < 0 {
		panic("sim: negative MachineAdvance")
	}
	p.now += d
}

// MachineAdvanceTo moves the clock to t if t is in the future; the
// frame then returns StepYield (the machine form of AdvanceTo).
func (p *Proc) MachineAdvanceTo(t Time) {
	if t > p.now {
		p.now = t
	}
}

// MachineBlock registers the condition and marks the proc blocked; the
// frame then returns StepBlock (the machine form of an unsatisfied
// BlockCond). The next Step call runs after a Signal wakes the proc,
// no earlier than the signalling write's effective time.
func (p *Proc) MachineBlock(key WatchKey, cond Cond) {
	if o := p.eng.obs; o != nil {
		o.Instant(p.id, int64(p.now), "sim", "block",
			obs.Arg{Key: "space", Val: int64(key.Space)}, obs.Arg{Key: "line", Val: int64(key.Line)})
	}
	p.state = stateBlocked
	p.eng.addWatcher(key, p, cond)
	p.wokeMachine = true
}

// nextToken picks the proc that should run next, draining machine
// steps inline: in inline mode, popped procs with a non-empty frame
// stack are stepped on the calling goroutine until one completes its
// section (its body goroutine must be resumed) or the queue empties. Because stepping
// never leaves this goroutine while machines yield to each other, every
// machine proc runnable at the head timestamp executes in one pass with
// zero channel operations — the same-clock batch. Returns nil when the
// queue is empty (termination or deadlock, arbitrated by the engine
// goroutine) or a frame panicked.
func (e *Engine) nextToken() *Proc {
	return e.drainToken(e.runq.pop())
}

// tokenFrom is nextToken for a token holder whose proc p just yielded
// while still runnable: p re-enters the queue and the best candidate
// comes out in one fused heap operation (runQueue.pushPop).
func (e *Engine) tokenFrom(p *Proc) *Proc {
	return e.drainToken(e.runq.pushPop(p))
}

func (e *Engine) drainToken(q *Proc) *Proc {
	for {
		if q == nil || len(q.frames) == 0 || !e.inline {
			return q
		}
		switch q.runMachine(false) {
		case machineDone:
			if e.panicVal != nil {
				return nil
			}
			// Section complete: q's body goroutine (parked in Exec)
			// takes the token and continues after the section.
			return q
		case machineYield:
			q = e.runq.pushPop(q)
		case machineBlock:
			q = e.runq.pop()
		}
	}
}
