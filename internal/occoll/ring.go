package occoll

import "repro/internal/sim"

// AllGatherRing exchanges every core's `lines`-line block so all cores
// hold all P blocks id-ordered at addr — like AllGather, but with a
// one-sided *ring* instead of the gather+broadcast tree: at step t each
// core stages the block it received at step t−1 into its own MPB and its
// right neighbour pulls it with a one-sided get. P−1 steps move every
// block once per hop, so the algorithm is bandwidth-optimal (each core
// transfers (P−1)·lines once in and once out) where the tree funnels all
// P blocks through the root; the tree wins on latency for small blocks,
// the ring on bandwidth for large ones — the registry's tuner picks per
// size (internal/algsel).
func (x *Collectives) AllGatherRing(addr, lines int) {
	x.IAllGatherRing(addr, lines).Wait()
}

// IAllGatherRing is the non-blocking AllGatherRing: it issues the ring
// exchange and returns a Request to Test or Wait on while the core
// computes.
func (x *Collectives) IAllGatherRing(addr, lines int) *Request {
	return x.issue("IAllGatherRing", 0, addr, lines, nil, progRing)
}

// ringAllGather frame states (Request.pc during a phRing phase).
const (
	rgSlot   uint8 = iota // wait until the slot's previous transfer was acked
	rgStage               // stage the outgoing chunk
	rgNotify              // bump the right neighbour's dnNotify
	rgRecv                // wait for the left neighbour's chunk
	rgGet                 // pull it to its final address
	rgAck                 // ack with the left neighbour's dnDone[0]
	rgNext                // next chunk / ring step
	rgDrain               // right neighbour consumed my last staged chunks
)

// stepRing is ringAllGather as a frame stepper: the ring pipeline on
// the lane. Cores form a ring in id order; transfers carry a global
// 1-based sequence number tr shared by all cores, so slot rotation and
// flag sequences agree everywhere without negotiation. Ring step i
// sends block (me−i) mod P and receives block (me−1−i) mod P, chunk by
// chunk; per transfer a core
//
//  1. waits (slot reuse) until its right neighbour acked the transfer
//     that previously occupied the slot (own dnDone[0] ≥ tr−nb),
//  2. stages the outgoing chunk into the slot and bumps the right
//     neighbour's dnNotify to tr,
//  3. waits for its own dnNotify ≥ tr (left neighbour staged), and
//  4. pulls the chunk from the left neighbour's identical slot straight
//     to its final private address and acks with the left neighbour's
//     dnDone[0].
//
// Staging (2) never depends on the left neighbour, so the cycle of waits
// around the ring is broken the same way a pipelined ring of sendrecvs
// is: every core posts its "send" before blocking on its "receive".
func (r *Request) stepRing() sim.StepStatus {
	l, c := r.lane, r.x.core
	p, me := c.N(), c.ID()
	left, right := (me-1+p)%p, (me+1)%p
	nb := uint64(r.x.numBuffers())
	for {
		switch r.pc {
		case rgSlot:
			if r.i == p-1 {
				r.pc = rgDrain
				continue
			}
			if r.tr >= nb {
				return r.await(rgStage, l.dnDoneLine(0), r.tr+1-nb)
			}
			r.pc = rgStage
		case rgStage:
			m, src := r.blockChunk(((me-r.i)%p + p) % p)
			slot := l.slotLine(int(r.tr % nb))
			r.tr++
			r.pc = rgNotify
			return c.CallPutMemToMPB(me, slot, src, m)
		case rgNotify:
			r.pc = rgRecv
			return c.CallSetFlag(right, l.dnNotifyLine(), r.tr)
		case rgRecv:
			return r.await(rgGet, l.dnNotifyLine(), r.tr)
		case rgGet:
			m, dst := r.blockChunk(((me-1-r.i)%p + p) % p)
			r.pc = rgAck
			return c.CallGetMPBToMem(left, l.slotLine(int((r.tr-1)%nb)), dst, m)
		case rgAck:
			r.pc = rgNext
			return c.CallSetFlag(left, l.dnDoneLine(0), r.tr)
		case rgNext:
			if r.nextChunk() {
				r.i++
			}
			r.pc = rgSlot
		default: // rgDrain
			// The right neighbour must have consumed my last staged
			// chunks before the lane is handed to the next collective.
			if r.tr == 0 {
				return phaseDone
			}
			return r.await(pcEnd, l.dnDoneLine(0), r.tr)
		}
	}
}
