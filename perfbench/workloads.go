package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"

	ocbcast "repro"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A workload turns a seed into an instance: the generated inputs of one
// simulation, which the benchmark runs over and over in a closed loop
// with one client. README.md says why each workload is there.
type workloadDef struct {
	name string
	gen  func(rng *rand.Rand) instance
}

// instance is one workload's generated inputs.
type instance interface {
	// simulate builds a fresh System with tracing on or off and runs
	// one simulation through the public API. It is the timed part.
	simulate(traced bool) *outcome
}

// outcome is what one simulation left behind.
type outcome struct {
	sys    *ocbcast.System
	simUs  float64   // simulated makespan
	finish []float64 // per-core (or per-request) completion clocks
	// check verifies the simulation's outputs; it runs outside the
	// timed window.
	check func() error
	// counts are the data-movement counters summed over all cores,
	// filled in by the benchmark after the timed window.
	counts trace.CoreCounters
}

// rmaOps is the simulated RMA operation count of a simulation: puts,
// gets, flag sets and flag waits over all cores.
func (o *outcome) rmaOps() int64 {
	return o.counts.PutOps + o.counts.GetOps + o.counts.FlagSets + o.counts.FlagWaits
}

// sameAs reports how o differs from ref, a simulation of the same
// inputs, in any deterministic output: simulated time, per-core
// completion clocks or counters.
func (o *outcome) sameAs(ref *outcome) error {
	switch {
	case o.simUs != ref.simUs:
		return fmt.Errorf("sim_us %v differs from the first repeat's %v", o.simUs, ref.simUs)
	case !reflect.DeepEqual(o.finish, ref.finish):
		return fmt.Errorf("completion clocks differ from the first repeat's")
	case o.counts != ref.counts:
		return fmt.Errorf("counters {%v} differ from the first repeat's {%v}", o.counts, ref.counts)
	}
	return nil
}

// lastOf returns the largest value of xs.
func lastOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

var workloads = []workloadDef{
	{"bcast_ladder", func(rng *rand.Rand) instance { return newLadder(rng) }},
	{"oc_allreduce", func(rng *rand.Rand) instance { return newAllreduce(rng) }},
	{"replay_auto", func(rng *rand.Rand) instance { return newReplay(rng) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// seededBytes returns n seeded random bytes.
func seededBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// ---- bcast_ladder ----

// ladderSizes are the broadcast sizes in cache lines: the paper's range.
var ladderSizes = []int{1, 8, 96, 768, 4096}

// ladder broadcasts every ladder size once, in a seeded order, each from
// a seeded root, with seeded payload bytes.
type ladder struct {
	sizes, roots, addrs []int
	payload             [][]byte
}

func newLadder(rng *rand.Rand) *ladder {
	l := &ladder{}
	addr := 0
	for _, i := range rng.Perm(len(ladderSizes)) {
		n := ladderSizes[i]
		l.sizes = append(l.sizes, n)
		l.roots = append(l.roots, rng.Intn(ocbcast.MaxCores))
		l.addrs = append(l.addrs, addr)
		l.payload = append(l.payload, seededBytes(rng, n*ocbcast.CacheLineBytes))
		addr += n * ocbcast.CacheLineBytes
	}
	return l
}

func (l *ladder) simulate(traced bool) *outcome {
	sys := ocbcast.New(ocbcast.Options{Trace: traced})
	for i := range l.sizes {
		sys.WritePrivate(l.roots[i], l.addrs[i], l.payload[i])
	}
	finish := make([]float64, sys.N())
	sys.Run(func(c *ocbcast.Core) {
		for i, n := range l.sizes {
			c.Broadcast(l.roots[i], l.addrs[i], n)
		}
		finish[c.ID()] = c.NowMicros()
	})
	return &outcome{sys: sys, simUs: lastOf(finish), finish: finish, check: func() error {
		for core := 0; core < sys.N(); core++ {
			for i, want := range l.payload {
				if got := sys.ReadPrivate(core, l.addrs[i], len(want)); !bytes.Equal(got, want) {
					return fmt.Errorf("core %d: %d-CL broadcast from root %d delivered a wrong payload", core, l.sizes[i], l.roots[i])
				}
			}
		}
		return nil
	}}
}

// ---- oc_allreduce ----

const (
	allreduceLines = 256 // 8 KiB
	allgatherLines = 8   // per-core block
	overlapSlices  = 8   // compute slices polled by Test
)

// allreduce runs a blocking 8-KiB AllReduceOC, an IAllReduceOC of
// another 8 KiB overlapped with seeded compute slices polled by Test,
// and an AllGatherOC of seeded per-core blocks.
type allreduce struct {
	a, b     [][]byte // per-core int64 vectors of the two allreduces
	sumA     []byte   // expected results
	sumB     []byte
	blocks   [][]byte  // per-core allgather blocks
	slicesUs []float64 // compute slices of the overlapped allreduce
	addrB    int
	addrC    int
}

// seededVector returns size bytes of little-endian int64 lanes with
// small seeded values (sums over 48 cores cannot overflow).
func seededVector(rng *rand.Rand, size int) []byte {
	b := make([]byte, size)
	for i := 0; i < size; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], uint64(rng.Int63n(1<<32)-1<<31))
	}
	return b
}

// sumVectors adds the int64 lanes of vs.
func sumVectors(vs [][]byte) []byte {
	out := make([]byte, len(vs[0]))
	for _, v := range vs {
		for i := 0; i < len(v); i += 8 {
			s := binary.LittleEndian.Uint64(out[i:]) + binary.LittleEndian.Uint64(v[i:])
			binary.LittleEndian.PutUint64(out[i:], s)
		}
	}
	return out
}

func newAllreduce(rng *rand.Rand) *allreduce {
	n := ocbcast.MaxCores
	size := allreduceLines * ocbcast.CacheLineBytes
	x := &allreduce{addrB: size, addrC: 2 * size}
	for i := 0; i < n; i++ {
		x.a = append(x.a, seededVector(rng, size))
		x.b = append(x.b, seededVector(rng, size))
		x.blocks = append(x.blocks, seededBytes(rng, allgatherLines*ocbcast.CacheLineBytes))
	}
	x.sumA, x.sumB = sumVectors(x.a), sumVectors(x.b)
	for i := 0; i < overlapSlices; i++ {
		x.slicesUs = append(x.slicesUs, 150+100*rng.Float64())
	}
	return x
}

func (x *allreduce) simulate(traced bool) *outcome {
	sys := ocbcast.New(ocbcast.Options{Trace: traced})
	blockBytes := allgatherLines * ocbcast.CacheLineBytes
	for i := 0; i < sys.N(); i++ {
		sys.WritePrivate(i, 0, x.a[i])
		sys.WritePrivate(i, x.addrB, x.b[i])
		sys.WritePrivate(i, x.addrC+i*blockBytes, x.blocks[i])
	}
	finish := make([]float64, sys.N())
	sys.Run(func(c *ocbcast.Core) {
		c.AllReduceOC(0, allreduceLines, ocbcast.SumInt64)
		req := c.IAllReduceOC(x.addrB, allreduceLines, ocbcast.SumInt64)
		done := false
		for _, us := range x.slicesUs {
			c.Compute(us)
			if !done {
				done = req.Test()
			}
		}
		if !done {
			req.Wait()
		}
		c.AllGatherOC(x.addrC, allgatherLines)
		finish[c.ID()] = c.NowMicros()
	})
	return &outcome{sys: sys, simUs: lastOf(finish), finish: finish, check: func() error {
		all := bytes.Join(x.blocks, nil)
		for core := 0; core < sys.N(); core++ {
			if !bytes.Equal(sys.ReadPrivate(core, 0, len(x.sumA)), x.sumA) {
				return fmt.Errorf("core %d: AllReduceOC sum mismatch", core)
			}
			if !bytes.Equal(sys.ReadPrivate(core, x.addrB, len(x.sumB)), x.sumB) {
				return fmt.Errorf("core %d: IAllReduceOC sum mismatch", core)
			}
			if !bytes.Equal(sys.ReadPrivate(core, x.addrC, len(all)), all) {
				return fmt.Errorf("core %d: AllGatherOC blocks mismatch", core)
			}
		}
		return nil
	}}
}

// ---- replay_auto ----

// kernelTraces builds the three fig-apps kernels for a 48-core chip with
// seeded parameters. The seed moves the roots and jitters the compute
// gaps but keeps the collectives and their sizes fixed, so host cost
// barely depends on the seed.
func kernelTraces(rng *rand.Rand, sgdSteps int) []workload.Kernel {
	n := ocbcast.MaxCores
	jitter := func(us float64) float64 { return us * (0.95 + 0.1*rng.Float64()) }

	sgd := workload.DefaultSGD(n)
	sgd.Steps = sgdSteps
	sgd.FwdUs, sgd.BwdUs, sgd.UpdateUs = jitter(sgd.FwdUs), jitter(sgd.BwdUs), jitter(sgd.UpdateUs)

	st := workload.DefaultStencil(n)
	st.Iters = 3
	st.ComputeUs = jitter(st.ComputeUs)
	stencil := workload.StencilTrace(st)
	shift := rng.Intn(n)
	for i := range stencil.Records {
		if r := &stencil.Records[i]; r.Op != workload.OpBcast {
			r.Root = (r.Root + shift) % n
		}
	}

	sh := workload.DefaultShuffle(n)
	sh.Rounds = 1
	sh.MapUs, sh.PartitionUs = jitter(sh.MapUs), jitter(sh.PartitionUs)
	shuffle := workload.ShuffleTrace(sh)
	shift = rng.Intn(n)
	for i := range shuffle.Records {
		r := &shuffle.Records[i]
		r.Root = (r.Root + shift) % n
	}

	return []workload.Kernel{
		{Name: "sgd", Trace: workload.SGDTrace(sgd)},
		{Name: "stencil", Trace: stencil},
		{Name: "shuffle", Trace: shuffle},
	}
}

// replay replays the three kernels back to back, in a seeded order, as
// one trace.
type replay struct {
	trace *ocbcast.Trace
}

func newReplay(rng *rand.Rand) *replay {
	ks := kernelTraces(rng, 2)
	tr := &ocbcast.Trace{}
	for _, i := range rng.Perm(len(ks)) {
		tr.Records = append(tr.Records, ks[i].Trace.Records...)
	}
	return &replay{trace: tr}
}

func (r *replay) simulate(traced bool) *outcome {
	sys := ocbcast.New(ocbcast.Options{Algorithm: "auto", Trace: traced})
	st, err := sys.Replay(r.trace)
	if err != nil {
		return &outcome{sys: sys, check: func() error { return err }}
	}
	return &outcome{sys: sys, simUs: st.MakespanUs, finish: st.FinishUs, check: func() error {
		if st.Records != len(r.trace.Records) || !(st.MakespanUs > 0) {
			return fmt.Errorf("replay of %d records reported %d records, makespan %v µs", len(r.trace.Records), st.Records, st.MakespanUs)
		}
		return nil
	}}
}
