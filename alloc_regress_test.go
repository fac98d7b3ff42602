// Allocation-budget regression tests for the simulator hot paths. Each
// budget pins a steady-state contract established by the
// allocation-free-hot-path work: the numbers are deliberately loose
// ceilings (2-3x current measurements), so they catch a regression that
// reintroduces per-line or per-op allocation without flaking on noise
// from runtime internals.
package ocbcast_test

import (
	"testing"

	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/harness"
	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestAllocsPerBroadcastBudget pins the headline number the perf gate
// also checks: one warmed 48-core, 96-line OC-Bcast simulation — chip
// acquisition, barrier, broadcast, release — must stay within 500 heap
// allocations (the seed code performed ~2268; the hot-path overhaul
// brought it under 200).
func TestAllocsPerBroadcastBudget(t *testing.T) {
	cfg := scc.DefaultConfig()
	run := func() {
		harness.MeanLatency(cfg, harness.Alg{Name: "oc", K: 7}, scc.NumCores, 96, 1)
	}
	run() // warm the chip pool
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 500 {
		t.Errorf("warmed MeasureBcast allocates %.0f times per broadcast, budget 500", allocs)
	}
	t.Logf("allocs per warmed broadcast: %.0f", allocs)
}

// TestAllocsPerOverlapRun pins the non-blocking lane protocol: a warmed
// issue+progress+wait allreduce cycle (request frames, lane records)
// must not regress to per-step allocation.
func TestAllocsPerOverlapRun(t *testing.T) {
	cfg := scc.DefaultConfig()
	cell := harness.OverlapCell{K: 7, Lines: 64, Overlap: true}
	run := func() { harness.MeasureOverlap(cfg, 8, cell) }
	run() // warm the chip pool
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 120 {
		t.Errorf("warmed overlap run allocates %.0f times, budget 120", allocs)
	}
	t.Logf("allocs per warmed overlap run: %.0f", allocs)
}

// TestAllocsPerReplayBudget pins the replay hot loop: a warmed
// 1000-record mixed-op replay — every collective family, blocking and
// overlapped records — on a pooled 8-core chip must stay within the same
// 500-allocation budget as a single warmed broadcast. The entire
// per-record path (replayer loop, algorithm dispatch, two-sided
// handshakes and combines, non-blocking issue/test/wait) is
// allocation-free in steady state; the budget covers only the per-run
// fixtures (ports, engines, environments).
func TestAllocsPerReplayBudget(t *testing.T) {
	cfg := scc.DefaultConfig()
	const n, records = 8, 1000
	ops := workload.Ops()
	tr := &workload.Trace{}
	for i := 0; i < records; i++ {
		r := workload.Record{Op: ops[i%len(ops)], Root: (i * 5) % n, Lines: 1 + i%4}
		if i%5 == 2 {
			r.ComputeUs = 3.5
		}
		tr.Records = append(tr.Records, r)
	}
	if err := tr.ValidateFor(n); err != nil {
		t.Fatal(err)
	}
	run := func() { harness.ReplayChip(cfg, n, tr) }
	run() // warm the chip pool
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 500 {
		t.Errorf("warmed 1000-record replay allocates %.0f times, budget 500", allocs)
	}
	t.Logf("allocs per warmed 1000-record replay: %.0f (%.2f per record)", allocs, allocs/records)
}

// TestTuneCacheHitAllocs pins the Tune memo: a cache hit is a key build
// plus a map probe, far under a full grid-and-bisection sweep.
func TestTuneCacheHitAllocs(t *testing.T) {
	cfg := scc.DefaultConfig()
	base := occore.DefaultConfig()
	topo := cfg.Topology()
	warm := algsel.TuneCached(cfg.Params, topo, scc.NumCores, base)
	if warm == nil {
		t.Fatal("TuneCached returned nil plan")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if algsel.TuneCached(cfg.Params, topo, scc.NumCores, base) != warm {
			t.Fatal("cache hit returned a different plan pointer")
		}
	})
	// The only allocation on a hit is the topology fingerprint string.
	if allocs > 2 {
		t.Errorf("Tune cache hit allocates %.1f times, budget 2", allocs)
	}
}

// TestAllocsPerServeBudget pins the serving runtime's steady state: a
// warmed 60-request two-tenant serving run on a pooled 8-core chip —
// epoch syncs, admission, batching, dispatch over two lanes, completion
// accounting — must stay within budget. The scheduler replica allocates
// everything up front (newSched) and the round loop is allocation-free;
// the budget covers only per-run fixtures (ports, engines, replica
// state, collected metrics).
func TestAllocsPerServeBudget(t *testing.T) {
	cfg := scc.DefaultConfig()
	const n = 8
	scfg := serve.Config{Policy: serve.PolicyWeighted, QueueBound: 16, MaxBatch: 4, MaxBatchLines: 64, Lanes: 2}
	streams := []serve.Stream{
		serve.Synthetic(serve.SyntheticParams{
			Tenant: "a", Weight: 3, Seed: 1, Count: 30, N: n,
			Ops: workload.Ops(), Lines: []int{1, 4, 8}, MeanGapUs: 40,
		}),
		serve.Synthetic(serve.SyntheticParams{
			Tenant: "b", Weight: 1, Seed: 2, Count: 30, N: n,
			Ops: []string{workload.OpBcast, workload.OpAllReduce}, Lines: []int{2, 16}, MeanGapUs: 25,
		}),
	}
	run := func() { harness.ServeChip(cfg, n, scfg, streams) }
	run() // warm the chip pool
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 1200 {
		t.Errorf("warmed 60-request serving run allocates %.0f times, budget 1200", allocs)
	}
	t.Logf("allocs per warmed serving run: %.0f", allocs)
}
