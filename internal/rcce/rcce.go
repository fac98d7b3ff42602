// Package rcce reimplements the communication layer the paper's baselines
// are built on: the RCCE library's one-sided-backed *two-sided* send/recv
// (van der Wijngaart et al., 2011) plus a barrier. RCCE pipelines a
// message through the sender's MPB in chunks of at most 251 cache lines
// (the paper's Mrcce), with a fully synchronous per-chunk handshake — the
// very structure whose off-chip traffic OC-Bcast eliminates.
package rcce

import (
	"fmt"

	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// MPB line layout used by the RCCE layer (per core).
const (
	// PayloadLines is Mrcce: the send/recv staging buffer, lines 0..250.
	PayloadLines = 251
	// Barrier tree flag lines.
	lineBarrierChildA  = 251 // set by left child on arrival
	lineBarrierChildB  = 252 // set by right child on arrival
	lineBarrierRelease = 253 // set by parent on release
	// Two-sided handshake flag lines.
	lineReady = 254 // written by my current receiver: chunk consumed
	lineSent  = 255 // written by my current sender: chunk staged
)

// Port is a per-core handle to the two-sided layer. Create one per core
// inside Chip.Run. A core has at most one outstanding send and one
// outstanding receive, and at most one sender may target a given receiver
// at a time — the discipline RCCE itself imposes and that the RCCE_comm
// collectives satisfy by construction.
type Port struct {
	core *rma.Core
	// Monotonic per-pair chunk sequence numbers. Chunk tags never
	// repeat, so stale flag lines can never satisfy a future wait.
	sendSeq   map[int]uint64 // per destination
	recvSeq   map[int]uint64 // per source
	turnGrant map[int]uint64 // send turns granted, per peer
	turnWait  map[int]uint64 // send turns awaited, per peer
	epoch     uint64         // barrier epoch
	shape     int            // root of the last rooted collective, -1 before the first

	// bar and two are the port's reusable inline state machines (see
	// frames.go), used instead of the blocking bodies when the engine
	// latched inline execution. One of each suffices: a core runs at
	// most one barrier or two-sided call at a time.
	bar barrierFrame
	two twoFrame
}

// NewPort wraps a core with two-sided communication state. The RCCE line
// layout above is anchored in the paper-standard 256-line per-core MPB
// share (scc.MPBLinesPerCore); topologies below that cannot host the
// protocol — the public API rejects them up front, and a smaller MPB
// fails fast on the first out-of-range line access.
func NewPort(core *rma.Core) *Port {
	return &Port{
		core:      core,
		sendSeq:   make(map[int]uint64),
		recvSeq:   make(map[int]uint64),
		turnGrant: make(map[int]uint64),
		turnWait:  make(map[int]uint64),
		shape:     -1,
	}
}

// Shape classes for SyncShape. Two consecutive collectives may skip the
// fence only when their pairing graphs coincide: same class AND same
// root. The binomial rank-space tree is one class shared by broadcast,
// reduce, gather and scatter (they pair (vrank, vrank±mask) identically,
// which is what lets reduce+broadcast fusions like AllReduce stay
// fence-free); the naive star, the scatter-allgather halving-tree+ring,
// the neighbor ring and the recursive halving/doubling exchange each pair
// cores differently and form their own classes.
const (
	ShapeTree = iota << 16
	ShapeStar
	ShapeSAG
	ShapeRing
	ShapeRecHalf
)

// SyncShape fences consecutive two-sided collectives whose pairing
// structure differs. The handshake lines (lineSent, lineReady) are
// single-writer by the RCCE discipline: within one collective a core's
// partner set is fixed by the pairing graph, and per-pair flow control
// keeps one writer per line. Across two collectives with DIFFERENT
// graphs a core's new partner can overwrite a flag its old partner's
// handshake still needs — a lost wake-up and a deadlock (e.g. Gather(0)
// directly followed by Gather(1), or a root-0 tree gather followed by
// the neighbor-ring allgather). Every two-sided collective declares its
// shape here — a class constant above, OR'd with the root for rooted
// trees; when the shape changes, the cores run a barrier first, which
// drains all handshakes before any new-graph flag is written.
// Back-to-back collectives of the SAME shape — every measurement loop,
// and reduce+broadcast fusions like AllReduce — pass through untouched,
// so the fence costs nothing on existing paths.
func (p *Port) SyncShape(shape int) {
	if p.shape >= 0 && p.shape != shape {
		p.Barrier()
	}
	p.shape = shape
}

// Core returns the underlying RMA core handle.
func (p *Port) Core() *rma.Core { return p.core }

// tag encodes (peer, seq) into a flag value. Sequence numbers are
// per-ordered-pair and monotonic, so equality matching is unambiguous.
func tag(peer int, seq uint64) uint64 {
	return uint64(peer+1)<<40 | seq
}

// Send transmits `lines` cache lines starting at byte address addr (32-B
// aligned) of this core's private memory to core dst. It blocks, RCCE
// style, until the receiver has consumed every chunk: per chunk the
// sender stages data into its OWN MPB (a local put), flags the receiver,
// and waits for the receiver's ack before reusing the staging buffer.
//
// The one-line sent channel admits a single in-flight sender per
// receiver. Tree collectives satisfy this by construction for broadcast
// and scatter; operations where several children target one parent
// (reduce, gather) serialize senders with GrantTurn/AwaitTurn.
func (p *Port) Send(dst int, addr, lines int) {
	if dst == p.core.ID() {
		panic("rcce: send to self")
	}
	checkMsg(addr, lines)
	if p.core.Inline() {
		p.two = twoFrame{p: p, op: twoSend, pc: sLoop, dst: dst, sendAddr: addr, sendLines: lines}
		p.core.Exec(&p.two)
		return
	}
	me := p.core.ID()
	for off := 0; off < lines; off += PayloadLines {
		m := lines - off
		if m > PayloadLines {
			m = PayloadLines
		}
		p.sendSeq[dst]++
		seq := p.sendSeq[dst]
		// Stage the chunk in my own MPB: local put, distance 1.
		p.core.PutMemToMPB(me, 0, addr+off*scc.CacheLine, m)
		// Tell the receiver the chunk is ready.
		p.core.SetFlag(dst, lineSent, tag(me, seq))
		// Wait for the consumption ack before overwriting the buffer.
		want := tag(dst, seq)
		p.core.WaitFlagEQ(lineReady, want)
	}
}

// Recv receives `lines` cache lines from core src into this core's
// private memory at byte address addr. Chunks are pulled from the
// sender's MPB with a one-sided get, then acked.
func (p *Port) Recv(src int, addr, lines int) {
	if src == p.core.ID() {
		panic("rcce: recv from self")
	}
	checkMsg(addr, lines)
	if p.core.Inline() {
		p.two = twoFrame{p: p, op: twoRecv, pc: rLoop, src: src, recvAddr: addr, recvLines: lines}
		p.core.Exec(&p.two)
		return
	}
	me := p.core.ID()
	for off := 0; off < lines; off += PayloadLines {
		m := lines - off
		if m > PayloadLines {
			m = PayloadLines
		}
		p.recvSeq[src]++
		seq := p.recvSeq[src]
		want := tag(src, seq)
		p.core.WaitFlagEQ(lineSent, want)
		p.core.GetMPBToMem(src, 0, addr+off*scc.CacheLine, m)
		p.core.SetFlag(src, lineReady, tag(me, seq))
	}
}

// turnTag marks a turn-grant value, disjoint from data-ack tags.
func turnTag(peer int, seq uint64) uint64 {
	return 1<<63 | tag(peer, seq)
}

// GrantTurn tells peer it may now send to this core. It writes the
// peer's ready line, which is safe because the granter is also the
// peer's current ack writer (the parent in reduce/gather), so the line
// keeps a single writer.
func (p *Port) GrantTurn(peer int) {
	p.turnGrant[peer]++
	p.core.SetFlag(peer, lineReady, turnTag(p.core.ID(), p.turnGrant[peer]))
}

// AwaitTurn blocks until peer grants this core a send turn.
func (p *Port) AwaitTurn(peer int) {
	p.turnWait[peer]++
	want := turnTag(peer, p.turnWait[peer])
	p.core.WaitFlagEQ(lineReady, want)
}

func checkMsg(addr, lines int) {
	if lines <= 0 {
		panic(fmt.Sprintf("rcce: non-positive message size %d lines", lines))
	}
	if addr%scc.CacheLine != 0 {
		panic(fmt.Sprintf("rcce: address %d not cache-line aligned", addr))
	}
}

// SendRecv simultaneously sends to dst and receives from src (both
// nonzero-size, both ≤ PayloadLines per chunk round). It stages each
// outgoing chunk and flags the receiver BEFORE blocking on the incoming
// chunk, which makes ring exchanges (each core sends left, receives
// right) deadlock-free — the reason MPI provides sendrecv and what the
// scatter-allgather baseline's exchange rounds need.
func (p *Port) SendRecv(dst, sendAddr, sendLines, src, recvAddr, recvLines int) {
	if dst == p.core.ID() || src == p.core.ID() {
		panic("rcce: sendrecv with self")
	}
	checkMsg(sendAddr, sendLines)
	checkMsg(recvAddr, recvLines)
	if p.core.Inline() {
		p.two = twoFrame{p: p, op: twoSendRecv, pc: xLoop,
			dst: dst, sendAddr: sendAddr, sendLines: sendLines,
			src: src, recvAddr: recvAddr, recvLines: recvLines}
		p.core.Exec(&p.two)
		return
	}
	me := p.core.ID()

	sendOff, recvOff := 0, 0
	for sendOff < sendLines || recvOff < recvLines {
		var seq uint64
		staged := false
		if sendOff < sendLines {
			m := sendLines - sendOff
			if m > PayloadLines {
				m = PayloadLines
			}
			p.sendSeq[dst]++
			seq = p.sendSeq[dst]
			p.core.PutMemToMPB(me, 0, sendAddr+sendOff*scc.CacheLine, m)
			p.core.SetFlag(dst, lineSent, tag(me, seq))
			sendOff += m
			staged = true
		}
		if recvOff < recvLines {
			m := recvLines - recvOff
			if m > PayloadLines {
				m = PayloadLines
			}
			p.recvSeq[src]++
			want := tag(src, p.recvSeq[src])
			p.core.WaitFlagEQ(lineSent, want)
			p.core.GetMPBToMem(src, 0, recvAddr+recvOff*scc.CacheLine, m)
			p.core.SetFlag(src, lineReady, tag(me, p.recvSeq[src]))
			recvOff += m
		}
		if staged {
			want := tag(dst, seq)
			p.core.WaitFlagEQ(lineReady, want)
		}
	}
}

// Barrier synchronizes all cores using a binary gather-release tree over
// MPB flags. Each call uses a fresh epoch value, so flag lines are safely
// reused across barriers (single writer per line per epoch, waits are ≥).
func (p *Port) Barrier() {
	p.epoch++
	if p.core.Inline() {
		p.bar = barrierFrame{p: p, pc: bWaitA}
		p.core.Exec(&p.bar)
		return
	}
	me := p.core.ID()
	n := p.core.N()
	left, right := 2*me+1, 2*me+2

	// Gather: wait for children, then report to parent.
	if left < n {
		p.core.WaitFlagGE(lineBarrierChildA, p.epoch)
	}
	if right < n {
		p.core.WaitFlagGE(lineBarrierChildB, p.epoch)
	}
	if me != 0 {
		parent := (me - 1) / 2
		childLine := lineBarrierChildA
		if me == 2*parent+2 {
			childLine = lineBarrierChildB
		}
		p.core.SetFlag(parent, childLine, p.epoch)
		p.core.WaitFlagGE(lineBarrierRelease, p.epoch)
	}
	// Release downward.
	if left < n {
		p.core.SetFlag(left, lineBarrierRelease, p.epoch)
	}
	if right < n {
		p.core.SetFlag(right, lineBarrierRelease, p.epoch)
	}
}

// CallBarrier is Barrier as a child frame, for use inside a
// sim.Frame.Step of this port's core (the frame then returns the
// StepCall it reports).
func (p *Port) CallBarrier() sim.StepStatus {
	p.epoch++
	p.bar = barrierFrame{p: p, pc: bWaitA}
	return p.core.Call(&p.bar)
}
