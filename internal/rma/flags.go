package rma

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Flags are single-cache-line synchronization variables living in MPBs.
// The SCC guarantees 32 B read/write atomicity, so a flag occupies one
// line and needs no locking (paper §5.1). Flag values here are uint64
// sequence numbers (little-endian in the line's first 8 bytes): OC-Bcast
// flags carry the chunk sequence, so they never need resetting on the
// fast path.

// SetFlag writes value into line `line` of core dst's MPB. It is a 1-line
// put whose payload is a register value, so no source read is charged:
// completion = o^mpb_put + C^mpb_w(d).
func (c *Core) SetFlag(dst, line int, value uint64) {
	f := &c.opf
	c.setFlagPre(f, dst, line, value)
	c.proc.AdvanceTo(f.completion)
	c.opPost(f)
}

// ReadFlag reads the flag in line `line` of core src's MPB, charging one
// line read C^mpb_r(d).
func (c *Core) ReadFlag(src, line int) uint64 {
	o := c.beginSpan("flag.read", obs.BucketFlag,
		obs.Arg{Key: "src", Val: int64(src)}, obs.Arg{Key: "line", Val: int64(line)})
	d := c.distMPB(src)
	t0 := c.Now()
	srcPort := c.reservePort(src, t0, 1, false)
	t := t0 + c.CMpbR(d)
	delay := c.finishOp(t, srcPort, sim.Duration(d)*c.chip.Cfg.Params.Lhop, 0)
	_ = delay
	v := c.chip.MPB(src).PeekU64(line, c.Now())
	c.counters().MPBReadLines++
	c.endSpan(o)
	return v
}

// WaitFlag blocks until the flag in this core's own MPB line satisfies
// pred, then charges one local read C^mpb_r(1) — the final successful
// poll. Earlier unsuccessful polls cost no virtual time, matching the
// paper's modelling assumption that flag checking overlaps the wait.
// Sequence-number comparisons should use WaitFlagGE/WaitFlagEQ, whose
// wait path allocates nothing.
func (c *Core) WaitFlag(line int, pred func(uint64) bool) uint64 {
	// The span opens before the wait so blocked time lands in its bucket.
	o := c.beginSpan("flag.wait", obs.BucketWait,
		obs.Arg{Key: "line", Val: int64(line)}, obs.Arg{})
	own := c.chip.MPB(c.id)
	own.WaitU64(c.proc, line, pred)
	return c.finishFlagWait(o, own, line)
}

// WaitFlagGE blocks until the flag is ≥ seq (the common case: flags carry
// monotonically increasing chunk sequence numbers). The comparison rides
// in the MPB's reusable wait record — no closure per call.
func (c *Core) WaitFlagGE(line int, seq uint64) uint64 {
	o := c.beginSpan("flag.wait", obs.BucketWait,
		obs.Arg{Key: "line", Val: int64(line)}, obs.Arg{})
	own := c.chip.MPB(c.id)
	own.WaitU64GE(c.proc, line, seq)
	return c.finishFlagWait(o, own, line)
}

// WaitFlagEQ blocks until the flag is exactly seq — the RCCE handshake
// wait — with the same closure-free path as WaitFlagGE.
func (c *Core) WaitFlagEQ(line int, seq uint64) uint64 {
	o := c.beginSpan("flag.wait", obs.BucketWait,
		obs.Arg{Key: "line", Val: int64(line)}, obs.Arg{})
	own := c.chip.MPB(c.id)
	own.WaitU64EQ(c.proc, line, seq)
	return c.finishFlagWait(o, own, line)
}

// finishFlagWait charges the final successful poll read and closes the
// wait span: the common epilogue of every WaitFlag variant.
func (c *Core) finishFlagWait(o *obs.Recorder, own *mem.MPB, line int) uint64 {
	c.proc.Advance(c.CMpbR(1))
	v := own.PeekU64(line, c.Now())
	ctr := c.counters()
	ctr.MPBReadLines++
	ctr.FlagWaits++
	c.endSpan(o)
	return v
}

// ProbeFlagGE reports whether the flag in this core's own MPB line is
// already ≥ seq, charging no virtual time either way — the cheap
// pre-check the progress engine runs before resuming a parked
// protocol frame. A false result counts as a failed poll.
func (c *Core) ProbeFlagGE(line int, seq uint64) bool {
	if c.chip.MPB(c.id).ProbeU64(line, c.Now()) >= seq {
		return true
	}
	c.counters().FlagPolls++
	return false
}
