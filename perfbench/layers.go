package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
)

// tracedRepeats is how many traced and untraced simulations the traced
// run alternates to measure the tracing overhead.
const tracedRepeats = 5

// gcWindowMin is the fewest untraced simulations the runtime window of
// the traced run takes.
const gcWindowMin = 10

// measureLayers runs the traced per-layer measurement: the workload with
// Options.Trace on (obs), its counters (rma), its engine switches on a
// directly driven chip (sim), the Go runtime's share over a window of
// untraced simulations, and then the layer probes. Every call is wrapped
// in a span; the spans are written to .bench_build/spans.
func measureLayers(w workloadDef, seed int64, seconds float64, ms *metricSet, tl *tally) error {
	log := newSpanLog(fmt.Sprintf("%s/seed=%d", w.name, seed))
	var (
		inst instance
		ref  *outcome
		err  error
	)
	log.do("setup", func() { _, inst, ref, err = setUp(w, seed) })
	tl.record(err)
	if err != nil {
		return nil // counted; the report says the run is not correct
	}
	// rma: the workload's counters, which every repeat must match.
	c := ref.counts
	ms.set("rma.ops_per_sim", "count", float64(ref.rmaOps()))
	ms.set("rma.mpb_lines_per_sim", "count", float64(c.MPBReadLines+c.MPBWriteLines))
	ms.set("rma.offchip_lines_per_sim", "count", float64(c.OffChipLines()))
	ms.set("rma.flag_waits_per_sim", "count", float64(c.FlagWaits))
	ms.set("rma.flag_polls_per_sim", "count", float64(c.FlagPolls))

	// obs: alternate untraced and traced simulations of the same inputs.
	var plain, traced []float64
	var events int
	var attr [obs.NumBuckets]obs.Time
	for i := 0; i < tracedRepeats; i++ {
		log.do("obs.untraced_sim", func() {
			_, c, err := simulateChecked(inst, false, ref)
			tl.record(err)
			plain = append(plain, float64(c.cpu))
			runtime.GC() // each simulation starts from the same heap
		})
		log.do("obs.traced_sim", func() {
			o, c, err := simulateChecked(inst, true, ref)
			if err == nil {
				err = traceAgrees(o.sys.Timeline(), &events, &attr, i == 0)
			}
			tl.record(err)
			traced = append(traced, float64(c.cpu))
			runtime.GC()
		})
	}
	ms.set("obs.trace_overhead", "ratio", median(traced)/median(plain))
	ms.set("obs.events_per_sim", "count", float64(events))
	var total obs.Time
	for _, t := range attr {
		total += t
	}
	for b := obs.Bucket(0); b < obs.NumBuckets; b++ {
		ms.set("obs.attr."+b.String(), "fraction", float64(attr[b])/float64(total))
	}

	// Go runtime: GC cycles and GC CPU share over a window of untraced
	// simulations.
	log.do("runtime.window", func() {
		cycles, gcCPU, sims := runtimeWindow(inst, ref, time.Duration(seconds/4*float64(time.Second)), tl)
		ms.set("runtime.gc_cycles_per_sim", "count", cycles/float64(sims))
		ms.set("runtime.gc_cpu_frac", "fraction", gcCPU)
	})

	// sim: engine switches of the same simulation on a directly driven chip.
	log.do("sim.chip_run", func() {
		sw, simUs := chipSwitches(inst)
		if simUs != ref.simUs {
			fmt.Fprintf(os.Stderr, "perfbench: warning: the chip-driven run took %v simulated µs, the public run %v: "+
				"sim.switches_per_sim counts a different simulation; update chip.go to System.Run's wiring\n", simUs, ref.simUs)
		}
		ms.set("sim.switches_per_sim", "count", float64(sw))
	})

	log.do("probes", func() { tl.record(runProbes(log, rand.New(rand.NewSource(seed)), ms)) })

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := log.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(log.spans), path)
	return nil
}

// traceAgrees adds a traced simulation's timeline to the first one's
// figures (first) or checks that it repeats them exactly.
func traceAgrees(tl *obs.Timeline, events *int, attr *[obs.NumBuckets]obs.Time, first bool) error {
	if err := tl.Validate(); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	var sum [obs.NumBuckets]obs.Time
	for _, a := range tl.Attribution() {
		for b, t := range a.Buckets {
			sum[b] += t
		}
	}
	if first {
		*events, *attr = len(tl.Events), sum
		return nil
	}
	if len(tl.Events) != *events || sum != *attr {
		return fmt.Errorf("traced repeat has %d events and attribution %v, the first %d and %v", len(tl.Events), sum, *events, *attr)
	}
	return nil
}

// runtimeWindow runs untraced simulations for at least window and
// gcWindowMin simulations and returns the GC cycles they caused, the
// share of the process's CPU time the GC took, and the simulation count.
func runtimeWindow(inst instance, ref *outcome, window time.Duration, tl *tally) (cycles, gcCPU float64, sims int) {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	read := func() [3]float64 {
		metrics.Read(samples)
		var v [3]float64
		for i, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				v[i] = float64(s.Value.Uint64())
			case metrics.KindFloat64:
				v[i] = s.Value.Float64()
			}
		}
		return v
	}
	before := read()
	for start := time.Now(); sims < gcWindowMin || time.Since(start) < window; sims++ {
		_, _, err := simulateChecked(inst, false, ref)
		tl.record(err)
	}
	after := read()
	cycles = after[0] - before[0]
	if cpu := after[2] - before[2]; cpu > 0 {
		gcCPU = (after[1] - before[1]) / cpu
	}
	return cycles, gcCPU, sims
}
