package occoll

import "repro/internal/sim"

// Scatter distributes P `lines`-line blocks from the root: core i ends up
// with the block stored at addr + i·lines·32 in the root's private
// memory, at the same address in its own memory. The blocks travel down
// the k-ary tree store-and-forward: each node receives its whole
// subtree's blocks through its parent's MPB (double-buffered, pipelined),
// then streams each child's subtree onward from private memory. Interior
// nodes hold their descendants' blocks afterwards, like the two-sided
// recursive-halving scatter.
func (x *Collectives) Scatter(root, addr, lines int) {
	x.IScatter(root, addr, lines).Wait()
}

// IScatter is the non-blocking Scatter: it issues the distribution and
// returns a Request to Test or Wait on while the core computes.
func (x *Collectives) IScatter(root, addr, lines int) *Request {
	return x.issue("IScatter", root, addr, lines, nil, progScatter)
}

// Gather collects each core's `lines`-line block onto the root: core i's
// block ends up at addr + i·lines·32 in the root's private memory. The
// mirror of Scatter: each node first collects its children's subtree
// streams into final addresses, then streams its own subtree (its block
// first, descendants after, DFS order) up through its own MPB.
func (x *Collectives) Gather(root, addr, lines int) {
	x.IGather(root, addr, lines).Wait()
}

// IGather is the non-blocking Gather: it issues the collection and
// returns a Request to Test or Wait on while the core computes.
func (x *Collectives) IGather(root, addr, lines int) *Request {
	return x.issue("IGather", root, addr, lines, nil, progGather)
}

// AllGather exchanges every core's block so all cores hold all P blocks,
// id-ordered at addr: an OC-Gather onto core 0 fused with an OC-Bcast of
// the concatenated P·lines result down the same tree.
func (x *Collectives) AllGather(addr, lines int) {
	x.IAllGather(addr, lines).Wait()
}

// IAllGather is the non-blocking AllGather: it issues the fused
// gather+broadcast and returns a Request to Test or Wait on.
func (x *Collectives) IAllGather(addr, lines int) *Request {
	return x.issue("IAllGather", 0, addr, lines, nil, progAllGather)
}

// recvSubtree frame states (Request.pc during a phRecvSubtree phase).
const (
	rsStart uint8 = iota
	rsWait        // wait until the parent staged the next transfer
	rsGet         // pull it to its final address
	rsAck         // release the parent's slot
	rsNext        // next chunk / block
)

// stepRecvSubtree is recvSubtree as a frame stepper: a non-root node
// receives its subtree's blocks from its parent, block by block in DFS
// preorder, each block chunked through the parent's double-buffered MPB
// slots and written to its final private address. Transfer sequence
// numbers are per-edge and 1-based; slot rotation follows the transfer
// index, so both ends agree without negotiation. The root has nothing
// to receive.
func (r *Request) stepRecvSubtree() sim.StepStatus {
	l, c, t := r.lane, r.x.core, &r.tree
	nb := uint64(r.x.numBuffers())
	for {
		switch r.pc {
		case rsStart:
			if t.Rank == 0 {
				return phaseDone
			}
			r.pre = preorder(t.Rank, t.P, t.K)
			r.pc = rsWait
		case rsWait:
			if r.j == len(r.pre) {
				return phaseDone
			}
			return r.await(rsGet, l.dnNotifyLine(), r.tr+1)
		case rsGet:
			m, dst := r.blockChunk(rankID(r.pre[r.j], t.Root, t.P))
			slot := l.slotLine(int(r.tr % nb))
			r.tr++
			r.pc = rsAck
			return c.CallGetMPBToMem(t.Parent, slot, dst, m)
		case rsAck:
			r.pc = rsNext
			return c.CallSetFlag(t.Parent, l.dnDoneLine(t.ChildIdx), r.tr)
		default: // rsNext
			if r.nextChunk() {
				r.j++
			}
			r.pc = rsWait
		}
	}
}

// streamDown frame states (Request.pc during a phStreamDown phase).
const (
	sdStart  uint8 = iota
	sdSlot         // next transfer to child i: wait until the slot's occupant was consumed
	sdStage        // stage the block chunk into the slot
	sdNotify       // bump child i's dnNotify
	sdNext         // next chunk / block / child
	sdDrain        // every slot's last occupant consumed
)

// stepStreamDown is streamDown as a frame stepper: a node stages each
// child's subtree blocks (DFS preorder) from its private memory into
// its MPB slots and notifies the child, which pulls them with one-sided
// gets. Slots are shared across the per-child streams; an occupancy
// table delays each staging until the slot's previous occupant was
// consumed, and a final drain leaves the MPB free. r.i walks the
// children, r.tr counts the transfers to the current child, and the
// drain reuses r.j as the slot index.
func (r *Request) stepStreamDown() sim.StepStatus {
	l, c, t := r.lane, r.x.core, &r.tree
	nb := r.x.numBuffers()
	for {
		switch r.pc {
		case sdStart:
			if t.IsLeaf() {
				return phaseDone
			}
			// The occupancy table is lane-local scratch, reused across
			// operations so the steady-state down-stream allocates
			// nothing.
			if cap(l.dnUsed) < nb {
				l.dnUsed = make([]occupant, nb)
			}
			l.dnUsed = l.dnUsed[:nb]
			for s := range l.dnUsed {
				l.dnUsed[s] = occupant{}
			}
			r.pre = preorder(t.Rank*t.K+1, t.P, t.K)
			r.pc = sdSlot
		case sdSlot:
			if r.j == len(r.pre) {
				// Child i's stream is complete: start the next child's.
				r.i++
				if r.i == len(t.Children) {
					r.j, r.pc = 0, sdDrain
					continue
				}
				r.pre = preorder(t.Rank*t.K+1+r.i, t.P, t.K)
				r.j, r.tr = 0, 0
				continue
			}
			if u := l.dnUsed[r.tr%uint64(nb)]; u.seq > 0 {
				return r.await(sdStage, l.dnDoneLine(u.childIdx), u.seq)
			}
			r.pc = sdStage
		case sdStage:
			m, src := r.blockChunk(rankID(r.pre[r.j], t.Root, t.P))
			s := int(r.tr % uint64(nb))
			r.tr++
			l.dnUsed[s] = occupant{childIdx: r.i, seq: r.tr}
			r.pc = sdNotify
			return c.CallPutMemToMPB(c.ID(), l.slotLine(s), src, m)
		case sdNotify:
			r.pc = sdNext
			return c.CallSetFlag(t.Children[r.i], l.dnNotifyLine(), r.tr)
		case sdNext:
			if r.nextChunk() {
				r.j++
			}
			r.pc = sdSlot
		default: // sdDrain
			for r.j < nb {
				u := l.dnUsed[r.j]
				r.j++
				if u.seq > 0 {
					if !r.wait(l.dnDoneLine(u.childIdx), u.seq) {
						r.j--
						return sim.StepDone
					}
					return sim.StepCall
				}
			}
			return phaseDone
		}
	}
}

// gatherUp frame states (Request.pc during a phGather phase).
const (
	guStart  uint8 = iota
	guRecv         // wait for child i's next staged transfer
	guGet          // pull it to its final address
	guAck          // release child i's slot
	guRecvNx       // next chunk / block / child
	guSlot         // non-root: wait until the parent consumed the slot's previous transfer
	guStage        // stage my subtree's next chunk
	guReady        // bump my upReady flag at the parent
	guSendNx       // next chunk / block
	guDrain        // parent consumed my last staged transfers
)

// stepGather is gatherUp as a frame stepper: a node collects each
// child's subtree stream into final private addresses with one-sided
// gets from the child's MPB, then (non-root) streams its own subtree up
// through its MPB slots for the parent. The trailing upConsumed wait
// drains the slots before the phase ends. r.i walks the children and
// r.tr counts the transfers on the current edge.
func (r *Request) stepGather() sim.StepStatus {
	l, c, t := r.lane, r.x.core, &r.tree
	nb := uint64(r.x.numBuffers())
	for {
		switch r.pc {
		case guStart:
			r.pc = guRecv
			if len(t.Children) > 0 {
				r.pre = preorder(t.Rank*t.K+1, t.P, t.K)
			}
		case guRecv:
			if r.i == len(t.Children) {
				if t.Rank == 0 {
					return phaseDone
				}
				r.pre = preorder(t.Rank, t.P, t.K)
				r.j, r.tr, r.pc = 0, 0, guSlot
				continue
			}
			if r.j == len(r.pre) {
				r.i++
				if r.i < len(t.Children) {
					r.pre = preorder(t.Rank*t.K+1+r.i, t.P, t.K)
				}
				r.j, r.tr = 0, 0
				continue
			}
			return r.await(guGet, l.upReadyLine(r.i), r.tr+1)
		case guGet:
			m, dst := r.blockChunk(rankID(r.pre[r.j], t.Root, t.P))
			slot := l.slotLine(int(r.tr % nb))
			r.tr++
			r.pc = guAck
			return c.CallGetMPBToMem(t.Children[r.i], slot, dst, m)
		case guAck:
			r.pc = guRecvNx
			return c.CallSetFlag(t.Children[r.i], l.upConsumedLine(), r.tr)
		case guRecvNx:
			if r.nextChunk() {
				r.j++
			}
			r.pc = guRecv
		case guSlot:
			if r.j == len(r.pre) {
				r.pc = guDrain
				continue
			}
			if r.tr >= nb {
				return r.await(guStage, l.upConsumedLine(), r.tr+1-nb)
			}
			r.pc = guStage
		case guStage:
			m, src := r.blockChunk(rankID(r.pre[r.j], t.Root, t.P))
			slot := l.slotLine(int(r.tr % nb))
			r.tr++
			r.pc = guReady
			return c.CallPutMemToMPB(c.ID(), slot, src, m)
		case guReady:
			r.pc = guSendNx
			return c.CallSetFlag(t.Parent, l.upReadyLine(t.ChildIdx), r.tr)
		case guSendNx:
			if r.nextChunk() {
				r.j++
			}
			r.pc = guSlot
		default: // guDrain
			return r.await(pcEnd, l.upConsumedLine(), r.tr)
		}
	}
}
