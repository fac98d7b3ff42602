package harness

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Inline machine execution must reproduce the goroutine scheduler's
// results exactly on the real protocol stack, not just on synthetic
// sim-level workloads (internal/sim has that matrix). This suite runs
// the six collective pairs the repo measures — three broadcasts and
// three allreduce variants — plus every one-sided occoll operation
// (including a Test-polled non-blocking allreduce) across the four
// scaling topologies with randomized message sizes, in both execution
// modes, and requires the per-repetition latency vectors, the engine's
// slow-path switch counts and the summed data-movement counters to
// match event for event.

// conformanceCell runs one collective workload on a pooled chip and
// returns every repetition's latency, the run's slow-path switch count
// (diffed around the run: pooled engines accumulate forever) and the
// chip's data-movement counters summed over all cores.
func conformanceCell(cfg scc.Config, n int, kind string, k, lines, reps int) ([]sim.Duration, int64, trace.CoreCounters) {
	chip := rma.AcquireChipN(cfg, n)
	defer rma.ReleaseChip(chip)

	msgBytes := lines * scc.CacheLine
	// Scatter and the gathers address one lines-sized block per core.
	stride := msgBytes
	switch kind {
	case "allgather/oc", "allgather/ring", "scatter/oc", "gather/oc":
		stride = n * msgBytes
	}
	for c := 0; c < n; c++ {
		if c > 0 && (kind == "bcast/oc" || kind == "bcast/binomial" || kind == "bcast/sag" || kind == "bcast/lane") {
			break // broadcasts stage the root's payload only
		}
		payload := make([]byte, stride)
		for i := range payload {
			payload[i] = byte(i*7 + c*13 + 5)
		}
		for it := 0; it < reps; it++ {
			chip.Private(c).Write(it*stride, payload)
		}
	}
	scratchBase := (reps + 1) * stride

	starts := make([][]sim.Time, reps)
	returns := make([][]sim.Time, reps)
	for it := range returns {
		starts[it] = make([]sim.Time, n)
		returns[it] = make([]sim.Time, n)
	}

	sw0 := chip.Engine.Switches()
	chip.Run(func(c *rma.Core) {
		port := rcce.NewPort(c)
		comm := collective.NewComm(port)
		occfg := occore.DefaultConfig()
		occfg.K = k
		var op func(addr int)
		switch kind {
		case "bcast/oc":
			b := occore.NewBroadcaster(c, occfg)
			op = func(addr int) { b.Bcast(0, addr, lines) }
		case "bcast/binomial":
			op = func(addr int) { comm.BcastBinomial(0, addr, lines) }
		case "bcast/sag":
			op = func(addr int) { comm.BcastScatterAllgather(0, addr, lines) }
		case "allreduce/oc":
			x := occoll.New(c, port, occfg)
			op = func(addr int) { x.AllReduce(addr, lines, collective.SumInt64) }
		case "allreduce/twosided":
			op = func(addr int) {
				comm.Reduce(0, addr, scratchBase, lines, collective.SumInt64)
				comm.BcastBinomial(0, addr, lines)
			}
		case "allreduce/hybrid":
			b := occore.NewBroadcaster(c, occfg)
			op = func(addr int) {
				comm.Reduce(0, addr, scratchBase, lines, collective.SumInt64)
				b.Bcast(0, addr, lines)
			}
		case "bcast/lane":
			x := occoll.New(c, port, occfg)
			op = func(addr int) { x.Bcast(0, addr, lines) }
		case "reduce/oc":
			x := occoll.New(c, port, occfg)
			op = func(addr int) { x.Reduce(0, addr, lines, collective.SumInt64) }
		case "iallreduce/test":
			// Test-polled compute slices of a per-core length, so cores
			// complete on different paths: some on a true Test, the rest
			// in the closing Wait after parking mid-protocol.
			x := occoll.New(c, port, occfg)
			slice := sim.Micros(0.25 * float64(lines*(1+c.ID()%4)))
			op = func(addr int) {
				r := x.IAllReduce(addr, lines, collective.SumInt64)
				for i := 0; i < 24; i++ {
					c.Compute(slice)
					if r.Test() {
						return
					}
				}
				r.Wait()
			}
		case "allgather/oc":
			x := occoll.New(c, port, occfg)
			op = func(addr int) { x.AllGather(addr, lines) }
		case "allgather/ring":
			x := occoll.New(c, port, occfg)
			op = func(addr int) { x.AllGatherRing(addr, lines) }
		case "scatter/oc":
			x := occoll.New(c, port, occfg)
			op = func(addr int) { x.Scatter(0, addr, lines) }
		case "gather/oc":
			x := occoll.New(c, port, occfg)
			op = func(addr int) { x.Gather(0, addr, lines) }
		default:
			panic(fmt.Sprintf("unknown conformance kind %q", kind))
		}
		for it := 0; it < reps; it++ {
			port.Barrier()
			starts[it][c.ID()] = c.Now()
			op(it * stride)
			returns[it][c.ID()] = c.Now()
		}
	})
	switches := chip.Engine.Switches() - sw0
	var ctr trace.CoreCounters
	for _, cc := range chip.Counter {
		ctr.Add(cc)
	}

	out := make([]sim.Duration, reps)
	for it := 0; it < reps; it++ {
		first, last := starts[it][0], returns[it][0]
		for id := 1; id < n; id++ {
			if starts[it][id] < first {
				first = starts[it][id]
			}
			if returns[it][id] > last {
				last = returns[it][id]
			}
		}
		out[it] = last - first
	}
	return out, switches, ctr
}

// TestInlineGoroutineConformance drives the randomized conformance grid
// in inline and goroutine execution and compares latencies and switch
// counts exactly.
func TestInlineGoroutineConformance(t *testing.T) {
	cfg := scc.DefaultConfig()
	kinds := []string{
		"bcast/oc", "bcast/binomial", "bcast/sag",
		"allreduce/oc", "allreduce/twosided", "allreduce/hybrid",
		"bcast/lane", "reduce/oc", "iallreduce/test",
		"allgather/oc", "allgather/ring", "scatter/oc", "gather/oc",
	}
	rng := rand.New(rand.NewSource(29))
	for _, topo := range ScaleMeshes() {
		cfg := cfg
		cfg.Topo = topo
		n := topo.NumCores()
		if testing.Short() && n > 96 {
			continue
		}
		for _, kind := range kinds {
			lines := 4 + rng.Intn(60)
			switch kind {
			case "allgather/ring":
				if n > 96 {
					continue // P² transfers: seconds per cell on the big meshes
				}
				lines = 1 + lines%8
			case "allgather/oc", "scatter/oc", "gather/oc":
				lines = 1 + lines%8 // P blocks each: keep the big meshes quick
			}
			name := fmt.Sprintf("%s/%dx%d/%dCL", kind, topo.W, topo.H, lines)
			prev := sim.SetInline(true)
			inLat, inSw, inCtr := conformanceCell(cfg, n, kind, 7, lines, 2)
			sim.SetInline(false)
			goLat, goSw, goCtr := conformanceCell(cfg, n, kind, 7, lines, 2)
			sim.SetInline(prev)
			for it := range inLat {
				if inLat[it] != goLat[it] {
					t.Errorf("%s rep %d: latency %v (inline) vs %v (goroutine)",
						name, it, inLat[it], goLat[it])
				}
			}
			if inSw != goSw {
				t.Errorf("%s: switch count %d (inline) vs %d (goroutine)", name, inSw, goSw)
			}
			if inCtr != goCtr {
				t.Errorf("%s: counters %+v (inline) vs %+v (goroutine)", name, inCtr, goCtr)
			}
		}
	}
}
