package main

import (
	"fmt"
	"math/rand"
	"time"

	ocbcast "repro"
	"repro/internal/algsel"
	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/mem"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The layer probes time calls into each layer's public functions with
// inputs shaped like the workloads (48 cores, the workloads' sizes), on
// bare engines, MPBs and chips built outside the timed part. Each probe
// repeats its measurement probeRepeats times and reports the median.

const probeRepeats = 5

// repeatMedian runs f probeRepeats times inside spans named name and
// returns the median of its results.
func repeatMedian(log *spanLog, name string, f func() float64) float64 {
	var xs []float64
	for i := 0; i < probeRepeats; i++ {
		log.do(name, func() { xs = append(xs, f()) })
	}
	return median(xs)
}

// perUnit is the host nanoseconds of d spread over units.
func perUnit(d time.Duration, units int) float64 { return float64(d) / float64(units) }

// runOnChip runs body on every core of a fresh n-core chip and returns
// the host time of the Run alone.
func runOnChip(n int, body func(rc *rma.Core)) time.Duration {
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	t0 := time.Now()
	chip.Run(body)
	return time.Since(t0)
}

// runProbes runs every layer probe. A probe that finds a wrong result
// panics; runProbes returns that as an error.
func runProbes(log *spanLog, rng *rand.Rand, ms *metricSet) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer probe: %v", r)
		}
	}()
	probeSim(log, ms)
	probeMem(log, ms)
	probeRMA(log, ms)
	probeTwoSided(log, ms)
	probeCore(log, ms)
	probeOccoll(log, ms)
	probeAlgsel(log, ms)
	probeReplayer(log, rng, ms)
	probeServe(log, rng, ms)
	return nil
}

// ---- sim ----

func probeSim(log *spanLog, ms *metricSet) {
	const procs, advances = 48, 1000
	ms.set("sim.advance_ns", "ns", repeatMedian(log, "sim.advance", func() float64 {
		e := sim.NewEngine(procs)
		t0 := time.Now()
		e.Run(func(p *sim.Proc) {
			for i := 0; i < advances; i++ {
				p.Advance(1)
			}
		})
		return perUnit(time.Since(t0), procs*advances)
	}))

	// Two processes hand a token back and forth: each waits on its own
	// key until the token is its, then passes it and signals the peer.
	const rounds = 20000
	ms.set("sim.block_signal_ns", "ns", repeatMedian(log, "sim.block_signal", func() float64 {
		e := sim.NewEngine(2)
		token := 0
		t0 := time.Now()
		e.Run(func(p *sim.Proc) {
			me, peer := p.ID(), 1-p.ID()
			for i := 0; i < rounds; i++ {
				turn := 2*i + me
				p.Block(sim.WatchKey{Space: me}, func() bool { return token == turn })
				token++
				p.Advance(1)
				e.Signal(sim.WatchKey{Space: peer}, p.Now())
			}
		})
		return perUnit(time.Since(t0), 2*rounds)
	}))
}

// ---- mem ----

func probeMem(log *spanLog, ms *metricSet) {
	const lines, reps = 96, 2000
	const stride = sim.Duration(10)
	src := make([]byte, lines*scc.CacheLine)
	dst := make([]byte, lines*scc.CacheLine)
	var writeNs, readNs []float64
	for r := 0; r < probeRepeats; r++ {
		log.do("mem.write_read_lines", func() {
			m := mem.NewMPB(sim.NewEngine(1), 0, scc.MPBLinesPerCore, 1)
			var w, rd time.Duration
			for i := 0; i < reps; i++ {
				t := sim.Time(i) * 10000
				src[0] = byte(i)
				t0 := time.Now()
				m.WriteLines(0, src, lines, t+100, stride)
				t1 := time.Now()
				m.ReadLinesInto(dst, 0, lines, t+100+lines*stride, stride)
				rd += time.Since(t1)
				w += t1.Sub(t0)
			}
			if dst[0] != byte((reps-1)&0xff) {
				panic("perfbench: mem probe read a stale line")
			}
			writeNs = append(writeNs, perUnit(w, reps*lines))
			readNs = append(readNs, perUnit(rd, reps*lines))
		})
	}
	ms.set("mem.write_lines_ns_per_line", "ns", median(writeNs))
	ms.set("mem.read_lines_ns_per_line", "ns", median(readNs))

	// ProbeU64 of a line whose one pending write sits behind others
	// pending extents on other lines, all in the future.
	probe := func(pending int) float64 {
		const probes = 200000
		return repeatMedian(log, fmt.Sprintf("mem.probe.pending%d", pending), func() float64 {
			m := mem.NewMPB(sim.NewEngine(1), 0, scc.MPBLinesPerCore, 1)
			line := make([]byte, scc.CacheLine)
			for i := 0; i < pending-1; i++ {
				m.WriteLine(i, line, 1<<40)
			}
			line[0] = 1
			m.WriteLine(200, line, 1<<40)
			var sink uint64
			t0 := time.Now()
			for i := 0; i < probes; i++ {
				sink += m.ProbeU64(200, sim.Time(i))
			}
			d := time.Since(t0)
			if sink != 0 {
				panic("perfbench: mem probe saw a future write")
			}
			return perUnit(d, probes)
		})
	}
	ms.set("mem.probe_ns.pending1", "ns", probe(1))
	ms.set("mem.probe_ns.pending47", "ns", probe(47))
}

// ---- rma ----

func probeRMA(log *spanLog, ms *metricSet) {
	const lines, reps = 96, 500
	var put, get, combine, flag []float64
	for r := 0; r < probeRepeats; r++ {
		log.do("rma.ops", func() {
			runOnChip(2, func(c *rma.Core) {
				if c.ID() != 0 {
					return
				}
				t0 := time.Now()
				for i := 0; i < reps; i++ {
					c.PutMemToMPB(1, 0, 0, lines)
				}
				t1 := time.Now()
				for i := 0; i < reps; i++ {
					c.GetMPBToMem(1, 0, 0, lines)
				}
				t2 := time.Now()
				for i := 0; i < reps; i++ {
					c.GetMPBCombine(1, 0, 100, lines, collective.SumInt64)
				}
				t3 := time.Now()
				for i := 1; i <= reps; i++ {
					c.SetFlag(0, 250, uint64(i))
					c.WaitFlagGE(250, uint64(i))
				}
				t4 := time.Now()
				put = append(put, perUnit(t1.Sub(t0), reps*lines))
				get = append(get, perUnit(t2.Sub(t1), reps*lines))
				combine = append(combine, perUnit(t3.Sub(t2), reps*lines))
				flag = append(flag, perUnit(t4.Sub(t3), reps))
			})
		})
	}
	ms.set("rma.put_ns_per_line", "ns", median(put))
	ms.set("rma.get_ns_per_line", "ns", median(get))
	ms.set("rma.combine_ns_per_line", "ns", median(combine))
	ms.set("rma.flag_ns", "ns", median(flag))
}

// ---- rcce and collective (the two-sided stacks) ----

func probeTwoSided(log *spanLog, ms *metricSet) {
	const lines, pairs = 96, 200
	ms.set("rcce.sendrecv_ns_per_line", "ns", repeatMedian(log, "rcce.sendrecv", func() float64 {
		return perUnit(runOnChip(2, func(c *rma.Core) {
			p := rcce.NewPort(c)
			for i := 0; i < pairs; i++ {
				if c.ID() == 0 {
					p.Send(1, 0, lines)
				} else {
					p.Recv(0, 0, lines)
				}
			}
		}), pairs*lines)
	}))

	const bcasts = 10
	ms.set("collective.bcast_binomial_ns", "ns", repeatMedian(log, "collective.bcast_binomial", func() float64 {
		return perUnit(runOnChip(scc.NumCores, func(c *rma.Core) {
			comm := collective.NewComm(rcce.NewPort(c))
			for i := 0; i < bcasts; i++ {
				comm.BcastBinomial(0, 0, lines)
			}
		}), bcasts)
	}))
}

// ---- core (OC-Bcast) ----

func probeCore(log *spanLog, ms *metricSet) {
	for _, sz := range []struct{ lines, reps int }{{1, 200}, {96, 40}, {4096, 2}} {
		ms.set(fmt.Sprintf("core.bcast_ns.%dcl", sz.lines), "ns", repeatMedian(log, fmt.Sprintf("core.bcast.%dcl", sz.lines), func() float64 {
			return perUnit(runOnChip(scc.NumCores, func(c *rma.Core) {
				b := occore.NewBroadcaster(c, occore.DefaultConfig())
				for i := 0; i < sz.reps; i++ {
					b.Bcast(0, 0, sz.lines)
				}
			}), sz.reps)
		}))
	}
}

// ---- occoll ----

func probeOccoll(log *spanLog, ms *metricSet) {
	const reps = 5
	ms.set("occoll.allreduce_ns.8k", "ns", repeatMedian(log, "occoll.allreduce", func() float64 {
		return perUnit(runOnChip(scc.NumCores, func(c *rma.Core) {
			x := occoll.New(c, rcce.NewPort(c), occore.DefaultConfig())
			for i := 0; i < reps; i++ {
				x.AllReduce(0, allreduceLines, collective.SumInt64)
			}
			x.Finish()
		}), reps)
	}))

	var tests, hits int
	ms.set("occoll.iallreduce_ns.8k", "ns", repeatMedian(log, "occoll.iallreduce", func() float64 {
		tests, hits = 0, 0
		cores := make([][2]int, scc.NumCores)
		d := runOnChip(scc.NumCores, func(c *rma.Core) {
			x := occoll.New(c, rcce.NewPort(c), occore.DefaultConfig())
			for i := 0; i < reps; i++ {
				req := x.IAllReduce(0, allreduceLines, collective.SumInt64)
				done := false
				for s := 0; s < overlapSlices && !done; s++ {
					c.Compute(sim.Micros(200))
					done = req.Test()
					cores[c.ID()][0]++
					if done {
						cores[c.ID()][1]++
					}
				}
				if !done {
					req.Wait()
				}
			}
			x.Finish()
		})
		for _, th := range cores {
			tests += th[0]
			hits += th[1]
		}
		return perUnit(d, reps)
	}))
	ms.set("occoll.test_hit_ratio", "fraction", float64(hits)/float64(tests))
}

// ---- algsel ----

func probeAlgsel(log *spanLog, ms *metricSet) {
	cfg := scc.DefaultConfig()
	var plan *algsel.Plan
	ms.set("algsel.tune_ms", "ms", repeatMedian(log, "algsel.tune", func() float64 {
		t0 := time.Now()
		plan = algsel.Tune(cfg.Params, cfg.Topology(), scc.NumCores, occore.DefaultConfig())
		return float64(time.Since(t0)) / 1e6
	}))

	ops := algsel.Ops()
	sizes := []int{1, 2, 4, 8, 16, 64, 96, 256, 768, 1024, 4096}
	const calls = 200000
	ms.set("algsel.choose_ns", "ns", repeatMedian(log, "algsel.choose", func() float64 {
		found := 0
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if _, ok := plan.Choose(ops[i%len(ops)], sizes[i%len(sizes)]); ok {
				found++
			}
		}
		d := time.Since(t0)
		if found == 0 {
			panic("perfbench: the tuned plan chose nothing")
		}
		return perUnit(d, calls)
	}))
}

// ---- workload (the replayer's own dispatch) ----

// nopRunner is a workload.Runner whose collectives cost nothing.
type nopRunner struct{ clock float64 }

func (r *nopRunner) Compute(us float64)                         { r.clock += us }
func (r *nopRunner) Barrier()                                   {}
func (r *nopRunner) NowUs() float64                             { return r.clock }
func (r *nopRunner) Run(rec workload.Record, addr, scratch int) {}
func (r *nopRunner) Issue(rec workload.Record, addr, scratch int) workload.Pending {
	return nopPending{}
}

type nopPending struct{}

func (nopPending) Test() bool { return true }
func (nopPending) Wait()      {}

func probeReplayer(log *spanLog, rng *rand.Rand, ms *metricSet) {
	tr := newReplay(rng).trace
	l := workload.LayoutFor(tr, scc.NumCores)
	const replays = 2000
	ms.set("workload.replay_ns_per_record", "ns", repeatMedian(log, "workload.replay", func() float64 {
		r := &nopRunner{}
		t0 := time.Now()
		for i := 0; i < replays; i++ {
			workload.Replay(r, tr, l, workload.ReplayOptions{})
		}
		return perUnit(time.Since(t0), replays*len(tr.Records))
	}))
}

// ---- serve ----

// serveLanes and serveChunkLines give the serving chip four MPB lanes,
// which needs a smaller chunk than the paper's 96 to fit the MPB share.
const (
	serveLanes      = 4
	serveChunkLines = 16
	serveRepeats    = 3
)

// serveMix is the canonical four-tenant mix: the seeded kernels as
// weighted tenants plus seeded Poisson telemetry, at offered load 1.0
// (the kernels' own arrival gaps, which saturate the chip).
func serveMix(rng *rand.Rand) []ocbcast.ServeStream {
	weights := map[string]int{"sgd": 3, "stencil": 2, "shuffle": 2}
	var streams []ocbcast.ServeStream
	for _, k := range kernelTraces(rng, 1) {
		streams = append(streams, ocbcast.StreamFromTrace(k.Name, weights[k.Name], k.Trace))
	}
	return append(streams, serve.Synthetic(serve.SyntheticParams{
		Tenant: "telemetry", Weight: 1, Seed: rng.Int63(), Count: 24, N: ocbcast.MaxCores,
		Ops:       []string{workload.OpBcast, workload.OpGather},
		Lines:     []int{1, 2, 4, 8},
		MeanGapUs: 120,
	}))
}

// probeServe serves the mix on fresh Systems with weighted fairness over
// four lanes and moderate batching, timing the Serve call alone.
func probeServe(log *spanLog, rng *rand.Rand, ms *metricSet) {
	streams := serveMix(rng)
	offered := 0
	for _, st := range streams {
		offered += len(st.Reqs)
	}
	cfg := ocbcast.ServeConfig{
		Policy: ocbcast.PolicyWeighted, QueueBound: 32, MaxBatch: 8, MaxBatchLines: 128, Lanes: serveLanes,
	}
	var nsPerReq []float64
	var res ocbcast.ServeStats
	for i := 0; i < serveRepeats; i++ {
		log.do("serve.serve", func() {
			sys := ocbcast.New(ocbcast.Options{
				Algorithm: "auto", Channels: serveLanes, ChunkLines: serveChunkLines,
			})
			t0 := time.Now()
			r, err := sys.Serve(cfg, streams)
			d := time.Since(t0)
			switch {
			case err != nil:
				panic(fmt.Sprintf("perfbench: serve probe: %v", err))
			case r.Offered != offered || r.Completed+r.Rejected != offered || r.Completed == 0:
				panic(fmt.Sprintf("perfbench: serve probe: %d requests offered, %d completed, %d rejected", r.Offered, r.Completed, r.Rejected))
			case i > 0 && r.Fingerprint() != res.Fingerprint():
				panic("perfbench: serve probe: repeated Serve of one mix differs")
			}
			res = r
			nsPerReq = append(nsPerReq, perUnit(d, r.Completed))
		})
	}
	ms.set("serve.ns_per_request", "ns", median(nsPerReq))
	ms.set("serve.rounds_per_sim", "count", float64(res.Rounds))
	ms.set("serve.batches_per_sim", "count", float64(res.Batches))
	ms.set("serve.batch_occupancy", "ratio", res.BatchOccupancy)
	ms.set("serve.idle_round_ratio", "fraction", float64(res.IdleRounds)/float64(res.Rounds))
}
