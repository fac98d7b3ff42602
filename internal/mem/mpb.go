// Package mem implements the SCC's storage components as seen by the
// simulator: per-core Message Passing Buffers (MPB, paper §2.1) with the
// 32-byte line atomicity §5.1 relies on and the FIFO port contention
// model of §3.3, per-core private off-chip memory, and the L1-style
// cache model for private-memory reads that Formula 14 exploits. MPB
// capacity comes from the chip's topology (256 lines per core on the
// real SCC).
//
// Writes carry an effective virtual timestamp: a read at time t observes
// exactly the writes whose effective time is ≤ t. Because the engine
// executes operations in nondecreasing global time order, pending writes
// can be folded into the backing store lazily.
//
// Not-yet-visible writes are tracked as *extents*: one pendingExtent
// record covers a whole contiguous bulk transfer (base effective time
// plus a constant per-line stride), so an m-line RMA op costs one pending
// record instead of m per-line map entries. WriteLines/ReadLinesInto are
// the bulk entry points; WriteLine/ReadLine remain as the single-line
// special case.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/scc"
	"repro/internal/sim"
)

// MPB is one core's message-passing buffer (8 KB on the real SCC; the
// capacity comes from the chip's topology). All accesses are at
// cache-line granularity; the SCC guarantees read/write atomicity per
// 32 B line (paper §5.1), which the simulator enforces structurally by
// only moving whole lines.
type MPB struct {
	owner int // core id
	lines int // capacity in cache lines
	eng   *sim.Engine
	data  []byte

	// pending holds not-yet-visible write extents in issue order. The
	// extents covering a given line form that line's write queue:
	// writes are issued in nondecreasing time order, and each line
	// folds its own prefix independently.
	pending []*pendingExtent
	// free recycles fully folded extents (and their line buffers) so the
	// steady-state write path allocates nothing.
	free []*pendingExtent
	// pendCnt counts, per line, the pending extents whose write to that
	// line has not folded yet — an index over `pending` that lets the
	// read-side scans (settle, peekU64At, satisfiedAt) skip lines with
	// no unapplied writes in O(1) instead of walking the whole list.
	pendCnt []uint32
	// settledAt is the largest read time settle has folded to — a safe
	// fold horizon for sweepPending, because the engine executes
	// operations in nondecreasing global time order, so every future
	// read happens at or after it.
	settledAt sim.Time
	// sweepAt is the pending-list length that triggers the next
	// sweepPending, doubled after each sweep so a workload whose extents
	// genuinely cannot fold yet pays amortized O(1) per write.
	sweepAt int
	// sweepBlocked is sweepPending's reusable per-line blocked bitmap.
	sweepBlocked []uint64
	// dirty marks lines whose backing bytes have been written (folded)
	// since the last Reset, so Reset zeroes only those lines instead of
	// the whole buffer — most simulations touch a handful of lines per
	// MPB, and pooled reruns pay per line used, not per line owned.
	dirty []uint64

	// Port is the FIFO server modelling the MPB's access port, the
	// contention point measured in Figure 4.
	Port *sim.Resource

	// lastAccess tracks when each core last touched this MPB's port
	// (accessNever = not yet), for the active-accessor count that drives
	// the §3.3 beyond-the-knee contention penalty. Indexed by core id
	// and grown on demand: a flat scan of a few dozen entries beats the
	// map iteration this used to be on the per-op hot path.
	lastAccess []sim.Time
	// accessLog keeps each core's access timestamps within the trailing
	// window, to measure how *sustained* its pressure on the port is.
	accessLog [][]sim.Time

	// wait is the reusable wait condition for WaitU64*: in this codebase
	// only the MPB's owner ever waits on its own MPB (flag waits are
	// local polls), so one embedded record suffices; a concurrent second
	// waiter falls back to a one-shot closure.
	wait u64Wait
}

// Wait-comparison selectors for the closure-free WaitU64 variants.
const (
	waitPred uint8 = iota // arbitrary predicate (allocates a closure)
	waitGE                // value ≥ threshold
	waitEQ                // value == threshold
)

// u64Wait is an MPB's embedded flag-wait condition. Reusing it across
// waits keeps the steady-state block path allocation-free; the fields
// are rewritten per wait and the record is released when the process
// wakes.
type u64Wait struct {
	m      *MPB
	p      *sim.Proc
	line   int
	op     uint8
	val    uint64
	pred   func(uint64) bool
	active bool
}

func (w *u64Wait) Holds() bool {
	_, ok := w.m.satisfiedAt(w.line, w.p.Now(), w.op, w.val, w.pred)
	return ok
}

// pendingExtent is one not-yet-folded bulk write of n consecutive lines
// starting at line0, where line line0+i becomes visible at eff0+i·stride.
// applied marks lines already folded into the backing store (each line
// settles independently, in its own prefix order); it is sized to the
// extent (one bit per line) and recycled with it, so MPB capacity can
// vary per topology without a compile-time bound.
type pendingExtent struct {
	line0, n int
	eff0     sim.Time
	stride   sim.Duration
	data     []byte // n×32 bytes, owned by the MPB
	applied  []uint64
	// appliedArr backs applied without a separate heap allocation for
	// extents of up to 256 lines (any default-topology transfer); larger
	// MPB shares fall back to an owned slice.
	appliedArr [4]uint64
	nApplied   int
}

func (x *pendingExtent) covers(line int) bool {
	return line >= x.line0 && line < x.line0+x.n
}

func (x *pendingExtent) effAt(line int) sim.Time {
	return x.eff0 + sim.Duration(line-x.line0)*x.stride
}

func (x *pendingExtent) lineData(line int) []byte {
	off := (line - x.line0) * scc.CacheLine
	return x.data[off : off+scc.CacheLine]
}

func (x *pendingExtent) isApplied(line int) bool {
	i := line - x.line0
	return x.applied[i/64]&(1<<(i%64)) != 0
}

func (x *pendingExtent) markApplied(line int) {
	i := line - x.line0
	x.applied[i/64] |= 1 << (i % 64)
	x.nApplied++
}

// NewMPB creates core owner's MPB of `lines` cache lines (the per-core
// share from the chip's topology; 256 on the real SCC) backed by engine e.
func NewMPB(e *sim.Engine, owner, lines int, readSvc sim.Duration) *MPB {
	if lines < 1 {
		panic(fmt.Sprintf("mem: MPB[%d] capacity %d lines must be positive", owner, lines))
	}
	return &MPB{
		owner:   owner,
		lines:   lines,
		eng:     e,
		data:    make([]byte, lines*scc.CacheLine),
		pendCnt: make([]uint32, lines),
		dirty:   make([]uint64, (lines+63)/64),
		Port:    sim.NewResource(fmt.Sprintf("mpb[%d]", owner), readSvc),
	}
}

// accessNever marks a core that has not touched this MPB's port. It is
// far enough below any simulated time that last+window arithmetic
// cannot reach a real timestamp.
const accessNever = sim.Time(-1 << 60)

// accessSlot ensures the access-tracking slices cover core.
func (m *MPB) accessSlot(core int) {
	for len(m.lastAccess) <= core {
		m.lastAccess = append(m.lastAccess, accessNever)
		m.accessLog = append(m.accessLog, nil)
	}
}

// NoteAccess records that core touched this MPB's port at time t and
// returns how many times it did so within the trailing window (including
// this access) — the sustained-pressure measure behind the contention
// penalty: a single burst (one OC-Bcast chunk) is not sustained; Figure
// 4's back-to-back loops are.
func (m *MPB) NoteAccess(core int, t sim.Time, window sim.Duration) int {
	m.accessSlot(core)
	m.lastAccess[core] = t
	log := m.accessLog[core]
	i := 0
	for i < len(log) && log[i]+window < t {
		i++
	}
	if i > 0 {
		n := copy(log, log[i:])
		log = log[:n]
	}
	log = append(log, t)
	m.accessLog[core] = log
	return len(log)
}

// ActiveAccessors counts distinct cores that touched the port within the
// trailing window — the concurrency measure behind the paper's ~24-core
// contention knee.
func (m *MPB) ActiveAccessors(t sim.Time, window sim.Duration) int {
	n := 0
	for _, last := range m.lastAccess {
		if last != accessNever && last+window >= t {
			n++
		}
	}
	return n
}

// Owner reports the core id owning this MPB.
func (m *MPB) Owner() int { return m.owner }

// Lines reports the MPB capacity in cache lines.
func (m *MPB) Lines() int { return m.lines }

// watchKey returns the engine watch key for a line of this MPB.
func (m *MPB) watchKey(line int) sim.WatchKey {
	return sim.WatchKey{Space: m.owner, Line: line}
}

func (m *MPB) checkLine(line int) {
	if line < 0 || line >= m.lines {
		panic(fmt.Sprintf("mem: MPB[%d] line %d out of range [0,%d)", m.owner, line, m.lines))
	}
}

// settle folds pending writes with effective time ≤ t into the backing
// store for the given line. Per line, folding stops at the first pending
// write in the future — each line consumes its own issue-order prefix.
func (m *MPB) settle(line int, t sim.Time) {
	if t > m.settledAt {
		m.settledAt = t
	}
	left := m.pendCnt[line]
	if left == 0 {
		return
	}
	completed := false
	for _, x := range m.pending {
		if !x.covers(line) || x.isApplied(line) {
			continue
		}
		if x.effAt(line) > t {
			break
		}
		m.fold(x, line)
		completed = completed || x.nApplied == x.n
		if left--; left == 0 {
			break // every unapplied extent for this line seen
		}
	}
	if completed {
		m.compact()
	}
}

// rangeClear reports whether no bit in [lo, hi) of the bitmap is set.
func rangeClear(bits []uint64, lo, hi int) bool {
	for w := lo / 64; w <= (hi-1)/64; w++ {
		mask := ^uint64(0)
		if w == lo/64 {
			mask &= ^uint64(0) << (lo % 64)
		}
		if w == (hi-1)/64 {
			mask &= ^uint64(0) >> (63 - (hi-1)%64)
		}
		if bits[w]&mask != 0 {
			return false
		}
	}
	return true
}

// fold copies one pending line into the backing store and maintains the
// per-line unapplied index.
func (m *MPB) fold(x *pendingExtent, line int) {
	copy(m.data[line*scc.CacheLine:], x.lineData(line))
	m.dirty[line/64] |= 1 << (line % 64)
	x.markApplied(line)
	m.pendCnt[line]--
}

// compact recycles every fully folded extent, wherever it sits in the
// list: a fully folded extent is invisible to reads (they skip applied
// lines), so removal order doesn't matter. Extents covering lines that
// are written but never read again (e.g. a collective's unread flag
// slots) can therefore not pin completed extents behind them.
func (m *MPB) compact() {
	kept := m.pending[:0]
	for _, x := range m.pending {
		if x.nApplied == x.n {
			m.recycle(x)
		} else {
			kept = append(kept, x)
		}
	}
	for j := len(kept); j < len(m.pending); j++ {
		m.pending[j] = nil
	}
	m.pending = kept
}

func (m *MPB) recycle(x *pendingExtent) {
	for i := range x.applied {
		x.applied[i] = 0
	}
	x.nApplied = 0
	x.n = 0
	m.free = append(m.free, x)
}

// newExtent returns a recycled or fresh extent with room for n lines.
// Both the data buffer and the applied bitmap are recycled, so the
// steady-state write path allocates nothing.
func (m *MPB) newExtent(n int) *pendingExtent {
	var x *pendingExtent
	if k := len(m.free); k > 0 {
		x = m.free[k-1]
		m.free[k-1] = nil
		m.free = m.free[:k-1]
	} else {
		x = &pendingExtent{}
	}
	need := n * scc.CacheLine
	if cap(x.data) < need {
		// Round the buffer up to a power-of-two class so the pool's
		// buffers converge on sizes that serve every smaller transfer,
		// instead of churning reallocations when a recycled small-flag
		// extent is popped for a larger payload write.
		class := scc.CacheLine
		for class < need {
			class <<= 1
		}
		x.data = make([]byte, need, class)
	}
	x.data = x.data[:need]
	words := (n + 63) / 64
	switch {
	case words <= len(x.appliedArr):
		x.applied = x.appliedArr[:words]
	case cap(x.applied) >= words:
		x.applied = x.applied[:words]
	default:
		x.applied = make([]uint64, words)
	}
	x.n = n
	return x
}

// sweepPending folds every pending line value whose effective time has
// already been observed by some read (settledAt is a safe horizon: the
// engine executes operations in nondecreasing global time order, so no
// future read can arrive earlier). Without it, an extent whose lines are
// never read again — a collective's final flag write, a lane's abandoned
// slot — stays pending for the rest of the simulation: the pool starves,
// and every settle scans an ever-growing list, turning long replays
// quadratic. The trigger threshold doubles when a sweep cannot shrink
// the list (extents genuinely still in the future), keeping the
// amortized cost per write O(1).
func (m *MPB) sweepPending() {
	words := (m.lines + 63) / 64
	if cap(m.sweepBlocked) < words {
		m.sweepBlocked = make([]uint64, words)
	}
	blocked := m.sweepBlocked[:words]
	for i := range blocked {
		blocked[i] = 0
	}
	completed := false
	for _, x := range m.pending {
		for line := x.line0; line < x.line0+x.n; line++ {
			if blocked[line/64]&(1<<(line%64)) != 0 || x.isApplied(line) {
				continue
			}
			if x.effAt(line) > m.settledAt {
				// A future write blocks this line's queue: later
				// extents must not fold ahead of it.
				blocked[line/64] |= 1 << (line % 64)
				continue
			}
			m.fold(x, line)
			completed = completed || x.nApplied == x.n
		}
	}
	if completed {
		m.compact()
	}
	m.sweepAt = 2 * len(m.pending)
	if m.sweepAt < sweepMinPending {
		m.sweepAt = sweepMinPending
	}
}

// sweepMinPending is the pending-list length below which sweepPending is
// never triggered: short lists are cheap to scan and recycle naturally.
const sweepMinPending = 64

// ReadLine returns the 32-byte content of a line as visible at time t.
// The returned slice is a copy.
func (m *MPB) ReadLine(line int, t sim.Time) []byte {
	m.checkLine(line)
	m.settle(line, t)
	out := make([]byte, scc.CacheLine)
	copy(out, m.data[line*scc.CacheLine:])
	return out
}

// ReadLinesInto copies n consecutive lines starting at line0 into dst
// (≥ n×32 bytes), where line line0+i is read as visible at t0+i·stride —
// the per-line read times of a bulk RMA op whose per-line cost is
// constant. It allocates nothing.
func (m *MPB) ReadLinesInto(dst []byte, line0, n int, t0 sim.Time, stride sim.Duration) {
	if n <= 0 {
		panic(fmt.Sprintf("mem: MPB[%d] non-positive read extent %d", m.owner, n))
	}
	m.checkLine(line0)
	m.checkLine(line0 + n - 1)
	// Settling a line only writes that line's bytes, so settling the
	// whole range first and copying once is identical to interleaving —
	// and replaces n 32-byte copies with a single memmove.
	m.settleRange(line0, n, t0, stride)
	copy(dst[:n*scc.CacheLine], m.data[line0*scc.CacheLine:(line0+n)*scc.CacheLine])
}

// settleRange folds pending writes visible to a bulk read of n lines
// starting at line0, where line line0+i is read at t0+i·stride: the
// per-extent equivalent of calling settle once per line, scanning the
// pending list once instead of once per line. Per line, folding stops
// at the first pending write in the future (tracked in the reusable
// blocked bitmap, as in sweepPending), preserving each line's
// issue-order prefix rule; the outcome is identical to the per-line
// loop. The scan stops as soon as every unapplied (extent, line) pair
// in the range has been disposed of — folded or found in the future.
func (m *MPB) settleRange(line0, n int, t0 sim.Time, stride sim.Duration) {
	if tMax := t0 + sim.Duration(n-1)*stride; tMax > m.settledAt {
		m.settledAt = tMax
	}
	todo := 0
	for i := line0; i < line0+n; i++ {
		todo += int(m.pendCnt[i])
	}
	if todo == 0 {
		return
	}
	words := (m.lines + 63) / 64
	if cap(m.sweepBlocked) < words {
		m.sweepBlocked = make([]uint64, words)
	}
	blocked := m.sweepBlocked[:words]
	for i := range blocked {
		blocked[i] = 0
	}
	completed := false
	for _, x := range m.pending {
		lo, hi := x.line0, x.line0+x.n
		if lo < line0 {
			lo = line0
		}
		if hi > line0+n {
			hi = line0 + n
		}
		if lo >= hi {
			continue
		}
		// Whole-extent fast path: an untouched extent fully inside the
		// read range whose every line is visible folds with one memmove.
		// eff(line)−t(line) is affine in line, so checking both ends
		// covers the middle; the blocked bits guard earlier future
		// writes to any of its lines.
		if lo == x.line0 && hi == x.line0+x.n && x.nApplied == 0 &&
			rangeClear(blocked, lo, hi) &&
			x.eff0 <= t0+sim.Duration(lo-line0)*stride &&
			x.effAt(hi-1) <= t0+sim.Duration(hi-1-line0)*stride {
			copy(m.data[lo*scc.CacheLine:], x.data)
			for i := range x.applied {
				x.applied[i] = ^uint64(0)
			}
			x.nApplied = x.n
			for line := lo; line < hi; line++ {
				m.dirty[line/64] |= 1 << (line % 64)
				m.pendCnt[line]--
			}
			todo -= x.n
			completed = true
			if todo == 0 {
				break
			}
			continue
		}
		for line := lo; line < hi; line++ {
			if x.isApplied(line) {
				continue
			}
			todo--
			if blocked[line/64]&(1<<(line%64)) != 0 {
				continue
			}
			if x.effAt(line) > t0+sim.Duration(line-line0)*stride {
				blocked[line/64] |= 1 << (line % 64)
				continue
			}
			m.fold(x, line)
			completed = completed || x.nApplied == x.n
		}
		if todo == 0 {
			break
		}
	}
	if completed {
		m.compact()
	}
}

// WriteLine stores 32 bytes into a line with effective time eff and
// signals any process blocked on that line. src must hold ≥32 bytes.
func (m *MPB) WriteLine(line int, src []byte, eff sim.Time) {
	m.WriteLines(line, src, 1, eff, 0)
}

// WriteLines stores n consecutive lines starting at line0, where line
// line0+i becomes visible at eff0+i·stride, and signals each line's
// watchers at its own effective time. src must hold ≥ n×32 bytes and is
// copied, so callers may reuse their buffer. The whole transfer is
// carried by a single pending record (recycled across operations), so the
// steady-state cost is O(1) allocations regardless of n.
func (m *MPB) WriteLines(line0 int, src []byte, n int, eff0 sim.Time, stride sim.Duration) {
	if n <= 0 {
		panic(fmt.Sprintf("mem: MPB[%d] non-positive write extent %d", m.owner, n))
	}
	if stride < 0 {
		panic(fmt.Sprintf("mem: MPB[%d] negative extent stride %d", m.owner, stride))
	}
	m.checkLine(line0)
	m.checkLine(line0 + n - 1)
	x := m.newExtent(n)
	x.line0 = line0
	x.eff0 = eff0
	x.stride = stride
	copy(x.data, src[:n*scc.CacheLine])
	m.pending = append(m.pending, x)
	for i := line0; i < line0+n; i++ {
		m.pendCnt[i]++
	}
	if len(m.pending) >= m.sweepAt && len(m.pending) >= sweepMinPending {
		m.sweepPending()
	}
	// One coalesced fan-out for the whole extent: the engine stops the
	// scan as soon as no process is blocked, so a wide bulk write costs
	// O(1) instead of n watcher-map probes.
	m.eng.SignalRange(m.owner, line0, n, eff0, stride)
}

// PeekU64 reads the first 8 bytes of a line as a little-endian uint64 as
// visible at time t, without copying the whole line. Used by flag polls.
func (m *MPB) PeekU64(line int, t sim.Time) uint64 {
	m.checkLine(line)
	m.settle(line, t)
	off := line * scc.CacheLine
	return binary.LittleEndian.Uint64(m.data[off:])
}

// peekU64At evaluates what PeekU64 would return at time t WITHOUT
// settling state — used inside wait predicates, which may be evaluated
// while earlier-time reads are still possible. It scans pending extents
// using only a stack buffer (it runs on every Signal delivered to a
// waiting process, so it must not allocate).
func (m *MPB) peekU64At(line int, t sim.Time) uint64 {
	off := line * scc.CacheLine
	v := binary.LittleEndian.Uint64(m.data[off:])
	if left := m.pendCnt[line]; left != 0 {
		for _, x := range m.pending {
			if !x.covers(line) || x.isApplied(line) {
				continue
			}
			if x.effAt(line) <= t {
				v = binary.LittleEndian.Uint64(x.lineData(line))
			}
			if left--; left == 0 {
				break
			}
		}
	}
	return v
}

// ProbeU64 evaluates what PeekU64 would return at time t WITHOUT settling
// pending writes into the backing store — the read has no side effects at
// all, so it is safe to issue from a core that polls a flag opportunistically
// (the non-blocking collectives' Test/Progress path) while lower-clock
// processes may still be about to issue earlier-time writes. It allocates
// nothing.
func (m *MPB) ProbeU64(line int, t sim.Time) uint64 {
	m.checkLine(line)
	return m.peekU64At(line, t)
}

// holdsOp evaluates one wait comparison: the GE/EQ fast forms compare
// inline (no closure anywhere on their path); waitPred defers to pred.
func holdsOp(v uint64, op uint8, val uint64, pred func(uint64) bool) bool {
	switch op {
	case waitGE:
		return v >= val
	case waitEQ:
		return v == val
	default:
		return pred(v)
	}
}

// satisfiedAt returns the earliest time ≥ now at which the (op, val,
// pred) comparison holds for the line's leading uint64, considering the
// settled state and pending writes in effective-time order. ok is false
// if no current or pending state satisfies it.
func (m *MPB) satisfiedAt(line int, now sim.Time, op uint8, val uint64, pred func(uint64) bool) (sim.Time, bool) {
	if holdsOp(m.peekU64At(line, now), op, val, pred) {
		return now, true
	}
	left := m.pendCnt[line]
	if left == 0 {
		return 0, false
	}
	for _, x := range m.pending {
		if !x.covers(line) || x.isApplied(line) {
			continue
		}
		eff := x.effAt(line)
		if eff > now && holdsOp(m.peekU64At(line, eff), op, val, pred) {
			// eff ≤ now is already folded into peekU64At(now) above.
			return eff, true
		}
		if left--; left == 0 {
			break
		}
	}
	return 0, false
}

// WaitU64 blocks process p until pred holds for the line's leading uint64,
// and returns with p's clock at (no earlier than) the effective time of
// the write that satisfied it. It is the simulator's flag-poll primitive:
// the process sleeps instead of burning virtual time spinning — matching
// the paper's assumption that no time elapses between a flag being set
// and observed, up to the final poll read the caller charges separately.
//
// Sequence-number waits should use WaitU64GE/WaitU64EQ, which skip the
// per-call predicate closure.
func (m *MPB) WaitU64(p *sim.Proc, line int, pred func(uint64) bool) {
	m.waitOp(p, line, waitPred, 0, pred)
}

// WaitU64GE blocks until the line's leading uint64 is ≥ val. The whole
// path is closure-free: the comparison is carried as (op, val) scalars
// in the MPB's embedded wait record.
func (m *MPB) WaitU64GE(p *sim.Proc, line int, val uint64) {
	m.waitOp(p, line, waitGE, val, nil)
}

// WaitU64EQ blocks until the line's leading uint64 is == val (the
// RCCE-style handshake wait), closure-free like WaitU64GE.
func (m *MPB) WaitU64EQ(p *sim.Proc, line int, val uint64) {
	m.waitOp(p, line, waitEQ, val, nil)
}

func (m *MPB) waitOp(p *sim.Proc, line int, op uint8, val uint64, pred func(uint64) bool) {
	m.checkLine(line)
	key := m.watchKey(line)
	for {
		if te, ok := m.satisfiedAt(line, p.Now(), op, val, pred); ok {
			p.AdvanceTo(te)
			return
		}
		w := &m.wait
		if w.active {
			// A second process is already parked on this MPB through the
			// embedded record (not a path the RCCE layers take); fall
			// back to a one-shot condition.
			p.Block(key, func() bool {
				_, ok := m.satisfiedAt(line, p.Now(), op, val, pred)
				return ok
			})
			continue
		}
		w.m, w.p, w.line, w.op, w.val, w.pred = m, p, line, op, val, pred
		w.active = true
		p.BlockCond(key, w)
		w.active = false
		w.pred = nil
	}
}

// Reset returns the MPB to its freshly constructed state — zeroed lines,
// no pending writes, idle port, empty access history — while keeping
// every warm buffer: extent records and their line buffers move to the
// free list, access-log slices are truncated in place, and map buckets
// survive, so a pooled chip's next simulation allocates nothing here.
func (m *MPB) Reset() {
	for w, mask := range m.dirty {
		for mask != 0 {
			line := w*64 + bits.TrailingZeros64(mask)
			mask &= mask - 1
			off := line * scc.CacheLine
			clear(m.data[off : off+scc.CacheLine])
		}
		m.dirty[w] = 0
	}
	for i, x := range m.pending {
		m.recycle(x)
		m.pending[i] = nil
	}
	m.pending = m.pending[:0]
	for i := range m.pendCnt {
		m.pendCnt[i] = 0
	}
	m.settledAt = 0
	m.sweepAt = 0
	m.Port.Reset()
	for i := range m.lastAccess {
		m.lastAccess[i] = accessNever
		m.accessLog[i] = m.accessLog[i][:0]
	}
	m.wait = u64Wait{}
}
