package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/scc"
	"repro/internal/sim"
)

// The occoll lane protocols' observable behaviour, frozen as data: a
// grid of every one-sided collective (blocking, and a non-blocking
// allreduce polled by Test between compute slices) on the 48- and
// 96-core scaling meshes, recording each repetition's latency, the
// engine's slow-path switch count and the chip's summed data-movement
// counters. Both execution modes must reproduce the checked-in digest
// byte for byte, so any rewrite of the protocols or of the scheduler
// under them is held to the timings of the code the digest was
// recorded from.

const occollDigestPath = "testdata/occoll_digest.txt"

var updateOccollDigest = flag.Bool("update-occoll-digest", false,
	"rewrite "+occollDigestPath+" from the current tree instead of checking it")

// occollDigestCells are the grid's (kind, message size) pairs: one
// single-chunk size and one that spans several chunk buffers, so slot
// reuse and the drain waits are exercised.
var occollDigestCells = []struct {
	kind  string
	lines int
}{
	{"bcast/lane", 5}, {"bcast/lane", 250},
	{"reduce/oc", 5}, {"reduce/oc", 250},
	{"allreduce/oc", 5}, {"allreduce/oc", 250},
	{"iallreduce/test", 5}, {"iallreduce/test", 250},
	{"allgather/oc", 2}, {"allgather/oc", 30},
	{"allgather/ring", 2}, {"allgather/ring", 100},
	{"scatter/oc", 2}, {"scatter/oc", 100},
	{"gather/oc", 2}, {"gather/oc", 100},
}

// occollDigest runs the grid in the current execution mode and renders
// one line per cell.
func occollDigest() string {
	var b strings.Builder
	cfg := scc.DefaultConfig()
	for _, topo := range ScaleMeshes()[:2] {
		cfg.Topo = topo
		for _, cell := range occollDigestCells {
			lat, sw, ctr := conformanceCell(cfg, topo.NumCores(), cell.kind, 7, cell.lines, 2)
			ps := make([]string, len(lat))
			for i, d := range lat {
				ps[i] = fmt.Sprint(int64(d))
			}
			fmt.Fprintf(&b, "%s %dx%d %dCL lat_ps=%s switches=%d %+v\n",
				cell.kind, topo.W, topo.H, cell.lines, strings.Join(ps, ","), sw, ctr)
		}
	}
	return b.String()
}

// TestOccollDigest checks the grid against the checked-in digest in
// goroutine and inline execution. Run with -update-occoll-digest to
// re-record it (only ever from code whose timings are meant to change).
func TestOccollDigest(t *testing.T) {
	if *updateOccollDigest {
		if err := os.WriteFile(occollDigestPath, []byte(occollDigest()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(occollDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	for _, inline := range []bool{false, true} {
		name := "goroutine"
		if inline {
			name = "inline"
		}
		t.Run(name, func(t *testing.T) {
			prev := sim.SetInline(inline)
			got := strings.Split(occollDigest(), "\n")
			sim.SetInline(prev)
			if len(got) != len(want) {
				t.Fatalf("digest has %d lines, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("cell %d:\n got  %s\n want %s", i, got[i], want[i])
				}
			}
		})
	}
}
