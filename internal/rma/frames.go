package rma

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/scc"
	"repro/internal/sim"
)

// This file is the state-machine face of the RMA primitives. Every op
// splits into a *pre* step (all side effects up to the completion-time
// clock advance: span open, port reservations, mesh booking, source
// reads, pre-yield counters) and a *post* step (deferred destination
// writes, remaining counters, span close), with the completion time
// carried between them in the core's embedded opFrame. The blocking
// entry points in ops.go/flags.go/chip.go run pre → AdvanceTo → post
// on the body goroutine; the Call* entry points push the same frame
// onto the proc's machine stack so protocol frames (rcce, core,
// occoll) execute the identical op without parking a goroutine. One
// source of truth, two drivers — the equivalence suite pins them
// byte-identical.

// opFrame opcodes: which post step (deferred writes + counters) runs
// after the completion-time yield. opWait is the multi-state flag wait.
const (
	opPutMPB uint8 = iota
	opPutMem
	opGetMPB
	opGetMem
	opCombine
	opSetFlag
	opPoll
	opWriteLocal
	opCompute
	opWait
)

// Wait-op program counter values (opFrame.pc when op == opWait).
const (
	wpCheck uint8 = iota // evaluate satisfiedAt; arm + block if not
	wpWake               // woken by a Signal: disarm, re-check
	wpPoll               // charge the final successful poll read
	wpDone               // read the value, count, close the span
)

// opFrame is a core's reusable RMA-op state machine: exactly one RMA
// op is in flight per core at a time (ops never nest), so the single
// embedded instance in Core carries any op's pre→post state with zero
// allocation.
type opFrame struct {
	c  *Core
	op uint8
	pc uint8

	// completion is the op's final clock position; delay is the extra
	// completion beyond the analytic time (shifts write visibility).
	completion sim.Time
	delay      sim.Duration

	// Deferred-write parameters for the post step. dst is nil when the
	// op writes nothing after the yield (GetMPBToMem).
	dst    *mem.MPB
	line   int
	m      int
	buf    []byte
	eff0   sim.Time
	stride sim.Duration

	// Flag-wait state (op == opWait).
	eq       bool
	val      uint64
	embedded bool
	result   uint64

	span *obs.Recorder
}

// Step drives one resume-point-to-resume-point section of the op: the
// completion-time advance, then the post step (flag waits carry their
// own multi-state loop in stepWait).
func (f *opFrame) Step(p *sim.Proc) sim.StepStatus {
	if f.op == opWait {
		return f.stepWait(p)
	}
	if f.pc == 0 {
		f.pc = 1
		p.MachineAdvanceTo(f.completion)
		return sim.StepYield
	}
	f.c.opPost(f)
	return sim.StepDone
}

// stepWait mirrors waitOp's check/arm/wake loop plus finishFlagWait's
// epilogue, state by state.
func (f *opFrame) stepWait(p *sim.Proc) sim.StepStatus {
	c := f.c
	own := c.chip.MPB(c.id)
	switch f.pc {
	case wpWake:
		own.DisarmWait(f.embedded)
		fallthrough
	case wpCheck:
		if te, ok := own.WaitSatisfiedAt(f.line, p.Now(), f.eq, f.val); ok {
			f.pc = wpPoll
			p.MachineAdvanceTo(te)
			return sim.StepYield
		}
		f.embedded = own.ArmWait(p, f.line, f.eq, f.val)
		f.pc = wpWake
		return sim.StepBlock
	case wpPoll:
		f.pc = wpDone
		p.MachineAdvance(c.CMpbR(1))
		return sim.StepYield
	default: // wpDone
		f.result = own.PeekU64(f.line, p.Now())
		ctr := c.counters()
		ctr.MPBReadLines++
		ctr.FlagWaits++
		c.endSpan(f.span)
		f.span = nil
		return sim.StepDone
	}
}

// opPost applies the op's deferred writes and remaining counters and
// closes its span — everything the blocking form does after its
// AdvanceTo(completion).
func (c *Core) opPost(f *opFrame) {
	ctr := c.counters()
	switch f.op {
	case opPutMPB:
		f.dst.WriteLines(f.line, f.buf, f.m, f.eff0, f.stride)
		ctr.MPBReadLines += int64(f.m)
		ctr.MPBWriteLines += int64(f.m)
		ctr.PutOps++
	case opPutMem:
		off := 0
		for _, r := range c.runs {
			f.dst.WriteLines(r.line0, f.buf[off:], r.n, r.eff0+f.delay, r.stride)
			off += r.n * scc.CacheLine
		}
		ctr.MPBWriteLines += int64(f.m)
		ctr.PutOps++
	case opGetMPB:
		f.dst.WriteLines(f.line, f.buf, f.m, f.eff0, f.stride)
		ctr.MPBReadLines += int64(f.m)
		ctr.MPBWriteLines += int64(f.m)
		ctr.GetOps++
	case opGetMem:
		ctr.MPBReadLines += int64(f.m)
		ctr.MemWriteLines += int64(f.m)
		ctr.GetOps++
	case opCombine:
		f.dst.WriteLines(f.line, f.buf, f.m, f.eff0, f.stride)
		ctr.MPBReadLines += int64(2 * f.m)
		ctr.MPBWriteLines += int64(f.m)
		ctr.GetOps++
	case opSetFlag:
		f.dst.WriteLine(f.line, c.flagBuf[:], f.eff0)
		ctr.MPBWriteLines++
		ctr.FlagSets++
	case opPoll:
		ctr.MPBReadLines++
		ctr.FlagWaits++
	case opWriteLocal:
		ctr.MPBWriteLines++
	}
	c.endSpan(f.span)
	f.span = nil
	f.dst = nil
	f.buf = nil
}

// Inline reports whether the engine driving this core latched inline
// state-machine execution for the current run. Protocol layers branch
// on it between Exec'ing a frame and the blocking body.
func (c *Core) Inline() bool { return c.proc.InlineActive() }

// Exec runs f as an inline machine section of this core's body — see
// sim.Proc.Exec.
func (c *Core) Exec(f sim.Frame) { c.proc.Exec(f) }

// The Call* entry points below are for use inside a sim.Frame.Step of
// this core's own machine: each runs the op's pre step at the current
// clock, pushes the core's opFrame as a child, and returns StepCall
// for the caller to propagate.

// Call pushes f as a child of the running frame (see sim.Proc.Call)
// and returns StepCall — how layers above rma nest their own frames.
func (c *Core) Call(f sim.Frame) sim.StepStatus {
	c.proc.Call(f)
	return sim.StepCall
}

// CallPutMemToMPB is PutMemToMPB as a child frame.
func (c *Core) CallPutMemToMPB(dst, dstLine, srcAddr, m int) sim.StepStatus {
	c.putMemPre(&c.opf, dst, dstLine, srcAddr, m)
	c.proc.Call(&c.opf)
	return sim.StepCall
}

// CallGetMPBToMPB is GetMPBToMPB as a child frame.
func (c *Core) CallGetMPBToMPB(src, srcLine, dstLine, m int) sim.StepStatus {
	c.getMPBPre(&c.opf, src, srcLine, dstLine, m)
	c.proc.Call(&c.opf)
	return sim.StepCall
}

// CallGetMPBToMem is GetMPBToMem as a child frame.
func (c *Core) CallGetMPBToMem(src, srcLine, dstAddr, m int) sim.StepStatus {
	c.getMemPre(&c.opf, src, srcLine, dstAddr, m)
	c.proc.Call(&c.opf)
	return sim.StepCall
}

// CallGetMPBCombine is GetMPBCombine as a child frame.
func (c *Core) CallGetMPBCombine(src, srcLine, dstLine, m int, combine func(dst, src []byte)) sim.StepStatus {
	c.combinePre(&c.opf, src, srcLine, dstLine, m, combine)
	c.proc.Call(&c.opf)
	return sim.StepCall
}

// CallCompute is Compute as a child frame.
func (c *Core) CallCompute(d sim.Duration) sim.StepStatus {
	c.computePre(&c.opf, d)
	c.proc.Call(&c.opf)
	return sim.StepCall
}

// CallSetFlag is SetFlag as a child frame.
func (c *Core) CallSetFlag(dst, line int, value uint64) sim.StepStatus {
	c.setFlagPre(&c.opf, dst, line, value)
	c.proc.Call(&c.opf)
	return sim.StepCall
}

// CallWaitFlagGE is WaitFlagGE as a child frame (the flag value lands
// in the frame's result field; framed protocols don't consume it).
func (c *Core) CallWaitFlagGE(line int, seq uint64) sim.StepStatus {
	return c.callWait(line, false, seq)
}

// CallTryFlagGE polls the flag in this core's own MPB line once,
// without blocking — the primitive under the non-blocking collectives'
// Test/Progress path. If the flag is ≥ seq it pushes the one charged
// poll read C^mpb_r(1) as a child frame — exactly the final poll
// WaitFlagGE charges — and reports true; the caller then returns
// StepCall. A failed probe costs no virtual time, counts as a failed
// poll (see ProbeFlagGE) and reports false, matching the modelling
// assumption that flag checking overlaps the wait.
func (c *Core) CallTryFlagGE(line int, seq uint64) bool {
	if !c.ProbeFlagGE(line, seq) {
		return false
	}
	f := &c.opf
	f.c, f.op, f.pc = c, opPoll, 0
	f.span = c.beginSpan("flag.poll", obs.BucketWait,
		obs.Arg{Key: "line", Val: int64(line)}, obs.Arg{})
	f.completion = c.Now() + c.CMpbR(1)
	c.proc.Call(f)
	return true
}

// CallWriteLocalLine stores a full line into the core's own MPB,
// charging a local line write C^mpb_w(1) — used to initialize buffers
// and flags. The line is visible L^mpb_w(1) after the call.
func (c *Core) CallWriteLocalLine(line int, data []byte) sim.StepStatus {
	f := &c.opf
	f.c, f.op, f.pc = c, opWriteLocal, 0
	f.span = c.beginSpan("line.write", obs.BucketMPB,
		obs.Arg{Key: "line", Val: int64(line)}, obs.Arg{})
	c.chip.MPB(c.id).WriteLine(line, data, c.Now()+c.LMpbW(1))
	f.completion = c.Now() + c.CMpbW(1)
	c.proc.Call(f)
	return sim.StepCall
}

// CallWaitFlagEQ is WaitFlagEQ as a child frame.
func (c *Core) CallWaitFlagEQ(line int, seq uint64) sim.StepStatus {
	return c.callWait(line, true, seq)
}

func (c *Core) callWait(line int, eq bool, val uint64) sim.StepStatus {
	f := &c.opf
	f.c, f.op, f.pc = c, opWait, wpCheck
	f.line, f.eq, f.val = line, eq, val
	// The span opens before the wait so blocked time lands in its
	// bucket, exactly like WaitFlagGE/EQ.
	f.span = c.beginSpan("flag.wait", obs.BucketWait,
		obs.Arg{Key: "line", Val: int64(line)}, obs.Arg{})
	c.proc.Call(f)
	return sim.StepCall
}

// setFlagPre is SetFlag up to the completion advance.
func (c *Core) setFlagPre(f *opFrame, dst, line int, value uint64) {
	f.c, f.op, f.pc = c, opSetFlag, 0
	f.span = c.beginSpan("flag.set", obs.BucketFlag,
		obs.Arg{Key: "dst", Val: int64(dst)}, obs.Arg{Key: "line", Val: int64(line)})
	p := c.chip.Cfg.Params
	d := c.distMPB(dst)
	t0 := c.Now()

	dstPort := c.reservePort(dst, t0, 1, true)
	mesh := c.meshTraverse(t0, c.coord(), c.coordOf(dst), 1)

	eff := t0 + p.OMpbPut + c.LMpbW(d)
	analytic := t0 + p.OMpbPut + c.CMpbW(d)
	f.completion, f.delay = c.opCompletion(analytic, dstPort, sim.Duration(d)*p.Lhop, mesh)

	c.flagBuf = [scc.CacheLine]byte{}
	binary.LittleEndian.PutUint64(c.flagBuf[:8], value)
	f.dst, f.line, f.eff0 = c.chip.MPB(dst), line, eff+f.delay
}
