package occoll

import (
	"repro/internal/collective"
	"repro/internal/sim"
)

// Reduce combines every core's `lines` cache lines at addr with op; the
// result lands at addr on the root. Unlike the two-sided binomial
// reduction, non-root cores' buffers are left untouched (no scratch area
// is needed): each core stages its contribution in its own MPB, and
// parents fold children's chunks into their MPB-resident accumulator with
// one-sided combining gets, pipelined chunk by chunk up the k-ary tree.
func (x *Collectives) Reduce(root, addr, lines int, op ReduceOp) {
	x.IReduce(root, addr, lines, op).Wait()
}

// IReduce is the non-blocking Reduce: it issues the reduction and returns
// a Request to Test or Wait on while the core computes.
func (x *Collectives) IReduce(root, addr, lines int, op ReduceOp) *Request {
	if op == nil {
		panic("occoll: nil reduce op")
	}
	return x.issue("IReduce", root, addr, lines, op, progReduce)
}

// AllReduce is OC-Reduce fused with an OC-Bcast of the result: both
// halves share one propagation tree and the same double-buffered MPB
// slots — the reduction's drain handshake doubles as the handoff that
// frees each slot for the broadcast pipeline. Every core ends with the
// combined result at addr.
func (x *Collectives) AllReduce(addr, lines int, op ReduceOp) {
	x.IAllReduce(addr, lines, op).Wait()
}

// IAllReduce is the non-blocking AllReduce: it issues the fused
// reduce+broadcast and returns a Request to Test or Wait on.
func (x *Collectives) IAllReduce(addr, lines int, op ReduceOp) *Request {
	if op == nil {
		panic("occoll: nil reduce op")
	}
	return x.issue("IAllReduce", 0, addr, lines, op, progAllReduce)
}

// reduceUp frame states (Request.pc during a phReduce phase).
const (
	ruSlot    uint8 = iota // wait until the parent consumed the slot's previous chunk
	ruStage                // stage my own contribution as the slot's accumulator
	ruChild                // wait for child i's staged chunk, or finish the chunk
	ruCombine              // fold child i's chunk into the accumulator
	ruCompute              // charge the combine arithmetic
	ruAck                  // release child i's slot
	ruNext                 // next chunk
	ruDrain                // parent consumed my last staged chunks
)

// stepReduce is reduceUp as a frame stepper: the reduction pipeline
// toward the root. Per chunk, a node stages its own contribution into
// its MPB slot, folds in each child's staged chunk with
// rma.GetMPBCombine (waiting on the child's upReady flag, acking with
// the child's upConsumed flag), then flags its own parent. The root
// instead drains the fully combined chunk to private memory. Flags carry
// 1-based chunk sequence numbers; slots are reused double-buffered like
// OC-Bcast (§4.2). Children are folded in child order (deterministic
// and, for the integer ops, exactly associative — results are
// byte-identical to the two-sided composition).
func (r *Request) stepReduce() sim.StepStatus {
	l, x, t := r.lane, r.x, &r.tree
	c := x.core
	nb := x.numBuffers()
	n := x.nchunks(r.lines)
	for {
		switch r.pc {
		case ruSlot:
			if r.ch == n {
				r.pc = ruDrain
				continue
			}
			if t.Rank != 0 && r.ch >= nb {
				return r.await(ruStage, l.upConsumedLine(), seq(r.ch-nb))
			}
			r.pc = ruStage
		case ruStage:
			m, buf, off := r.chunk(r.lines)
			r.i, r.pc = 0, ruChild
			return c.CallPutMemToMPB(c.ID(), buf, off, m)
		case ruChild:
			if r.i < len(t.Children) {
				return r.await(ruCombine, l.upReadyLine(r.i), seq(r.ch))
			}
			r.pc = ruNext
			if t.Rank == 0 {
				// Root: land the fully combined chunk in private memory.
				m, buf, off := r.chunk(r.lines)
				return c.CallGetMPBToMem(c.ID(), buf, off, m)
			}
			return c.CallSetFlag(t.Parent, l.upReadyLine(t.ChildIdx), seq(r.ch))
		case ruCombine:
			m, buf, _ := r.chunk(r.lines)
			r.pc = ruCompute
			return c.CallGetMPBCombine(t.Children[r.i], buf, buf, m, r.rop)
		case ruCompute:
			m, _, _ := r.chunk(r.lines)
			r.pc = ruAck
			return c.CallCompute(collective.CombineCost(m))
		case ruAck:
			r.i++
			r.pc = ruChild
			return c.CallSetFlag(t.Children[r.i-1], l.upConsumedLine(), seq(r.ch))
		case ruNext:
			r.ch++
			r.pc = ruSlot
		default: // ruDrain
			// My parent must have consumed my last staged chunks before
			// the phase ends (or hands the slots to AllReduce's
			// broadcast half).
			if t.Rank == 0 {
				return phaseDone
			}
			return r.await(pcEnd, l.upConsumedLine(), seq(n-1))
		}
	}
}
