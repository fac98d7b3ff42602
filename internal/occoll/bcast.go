package occoll

import "repro/internal/sim"

// Bcast delivers `lines` cache lines from the root's private memory at
// byte address addr to the same address on every core — OC-Bcast's §4
// chunk pipeline run over an occoll lane's own flag block (dnNotify/
// dnDone), with the §5.4 leaf-direct optimization always on. It is the
// blocking twin of IBcast; the classic core.Broadcaster remains the
// paper-faithful standalone broadcast with its own flag layout.
func (x *Collectives) Bcast(root, addr, lines int) {
	x.IBcast(root, addr, lines).Wait()
}

// IBcast is the non-blocking Bcast: it issues the broadcast and returns a
// Request to Test or Wait on while the core computes.
func (x *Collectives) IBcast(root, addr, lines int) *Request {
	return x.issue("IBcast", root, addr, lines, nil, progBcast)
}

// bcastDown frame states (Request.pc during a phBcast/phBcastAll
// phase). The root walks bdRoot*, every other core bdNotifyWait..bdNext;
// both end in bdDrain.
const (
	bdStart      uint8 = iota
	bdRootSlot         // root: wait until the chunk's slot is free, then stage it
	bdRootNotify       // root: notify the first children of its tree
	bdNotifyWait       // non-root: wait until the chunk reached the parent
	bdFwd              // non-root: forward the notification to siblings
	bdLeafAck          // leaf: release the parent's slot
	bdSlot             // interior: wait until the own slot is free, then pull
	bdAck              // interior: tell the parent the chunk is consumed
	bdNotify           // interior: wake the own subtree, then land the chunk
	bdNext             // non-root: next chunk
	bdDrain            // children consumed the last staged chunks
)

// stepBcast is bcastDown as a frame stepper: the OC-Bcast §4 chunk
// pipeline over the lane's own flag lines (dnNotify/dnDone), with the
// §5.4 leaf-direct optimization always on — a leaf pulls each chunk from
// its parent's MPB straight to private memory. It delivers `lines` cache
// lines from the tree root's addr to the same address everywhere.
func (r *Request) stepBcast(lines int) sim.StepStatus {
	l, x, t := r.lane, r.x, &r.tree
	c := x.core
	nb := x.numBuffers()
	n := x.nchunks(lines)
	for {
		switch r.pc {
		case bdStart:
			r.pc = bdNotifyWait
			if t.Rank == 0 {
				r.pc = bdRootSlot
			}
		case bdRootSlot:
			if r.ch == n {
				r.i, r.pc = 0, bdDrain
				continue
			}
			if r.ch >= nb && r.i < len(t.Children) {
				if !r.wait(l.dnDoneLine(r.i), seq(r.ch-nb)) {
					return sim.StepDone
				}
				r.i++
				return sim.StepCall
			}
			m, buf, chunkAddr := r.chunk(lines)
			r.i, r.pc = 0, bdRootNotify
			return c.CallPutMemToMPB(c.ID(), buf, chunkAddr, m)
		case bdRootNotify:
			if r.i < len(t.NotifyOwn) {
				r.i++
				return c.CallSetFlag(t.NotifyOwn[r.i-1], l.dnNotifyLine(), seq(r.ch))
			}
			r.ch++
			r.i, r.pc = 0, bdRootSlot
		case bdNotifyWait:
			if r.ch == n {
				r.pc = bdDrain
				continue
			}
			return r.await(bdFwd, l.dnNotifyLine(), seq(r.ch))
		case bdFwd:
			if r.i < len(t.NotifyFwd) {
				r.i++
				return c.CallSetFlag(t.NotifyFwd[r.i-1], l.dnNotifyLine(), seq(r.ch))
			}
			if t.IsLeaf() {
				m, buf, chunkAddr := r.chunk(lines)
				r.pc = bdLeafAck
				return c.CallGetMPBToMem(t.Parent, buf, chunkAddr, m)
			}
			r.i, r.pc = 0, bdSlot
		case bdLeafAck:
			r.pc = bdNext
			return c.CallSetFlag(t.Parent, l.dnDoneLine(t.ChildIdx), seq(r.ch))
		case bdSlot:
			if r.ch >= nb && r.i < len(t.Children) {
				if !r.wait(l.dnDoneLine(r.i), seq(r.ch-nb)) {
					return sim.StepDone
				}
				r.i++
				return sim.StepCall
			}
			m, buf, _ := r.chunk(lines)
			r.pc = bdAck
			return c.CallGetMPBToMPB(t.Parent, buf, buf, m)
		case bdAck:
			r.i, r.pc = 0, bdNotify
			return c.CallSetFlag(t.Parent, l.dnDoneLine(t.ChildIdx), seq(r.ch))
		case bdNotify:
			if r.i < len(t.NotifyOwn) {
				r.i++
				return c.CallSetFlag(t.NotifyOwn[r.i-1], l.dnNotifyLine(), seq(r.ch))
			}
			m, buf, chunkAddr := r.chunk(lines)
			r.pc = bdNext
			return c.CallGetMPBToMem(c.ID(), buf, chunkAddr, m)
		case bdNext:
			r.ch++
			r.i, r.pc = 0, bdNotifyWait
		default: // bdDrain
			if r.i < len(t.Children) {
				if !r.wait(l.dnDoneLine(r.i), seq(n-1)) {
					return sim.StepDone
				}
				r.i++
				return sim.StepCall
			}
			return phaseDone
		}
	}
}
