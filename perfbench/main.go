// Command perfbench measures the host cost of the SCC simulator on
// workloads driven through its public API (New, Run, Replay, Serve),
// end to end and layer by layer.
//
//	perfbench --workload bcast_ladder --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it runs the workload in a closed loop with one client
// for the given seconds, with tracing off, and prints the end-to-end
// metrics. With --trace 1 it runs the workload with Options.Trace on and
// then the per-layer probes, prints the per-layer metrics and writes the
// probes' spans to .bench_build/spans. Every simulation's outputs are
// checked outside the timed window; the last line of standard output is
// one JSON object with the result. See README.md for the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects named values in the order they were set, for the
// human-readable log.
type metricSet struct {
	order []string
	m     map[string]metric
}

func (ms *metricSet) set(name, unit string, v float64) {
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

// cpuNow returns the CPU time, user and system over all threads, that
// the process has used so far. The benchmark times simulations in CPU
// time, not wall time: on a shared virtual machine the hypervisor takes
// the CPUs away for minutes at a time (steal), which stretched wall time
// per simulation by up to 2x while CPU time grew by a third at most.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is the host time one simulation took.
type cost struct{ cpu, wall time.Duration }

// timedGC runs a full garbage collection and returns its host time.
func timedGC() cost {
	cpu0, t0 := cpuNow(), time.Now()
	runtime.GC()
	return cost{cpu: cpuNow() - cpu0, wall: time.Since(t0)}
}

// simTimeout bounds one simulation: a simulation that runs longer is
// taken to hang, and the benchmark exits with an error.
const simTimeout = 60 * time.Second

// simulateOnce runs one simulation, timing it, and turns a panic (a
// failed check inside the program, or a deadlock the engine detected)
// into an error.
func simulateOnce(inst instance, traced bool) (o *outcome, c cost, err error) {
	watchdog := time.AfterFunc(simTimeout, func() {
		fmt.Fprintf(os.Stderr, "perfbench: a simulation ran longer than %v; taking it to hang\n", simTimeout)
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, fmt.Errorf("simulation panicked: %v", r)
		}
	}()
	cpu0, t0 := cpuNow(), time.Now()
	o = inst.simulate(traced)
	return o, cost{cpu: cpuNow() - cpu0, wall: time.Since(t0)}, nil
}

// settle fills in o's counters and checks its outputs, and, when ref is
// not nil, that every deterministic output repeats ref's exactly. It runs
// outside the timed window.
func settle(o *outcome, ref *outcome) error {
	for i := 0; i < o.sys.N(); i++ {
		o.counts.Add(o.sys.Counters(i))
	}
	if err := o.check(); err != nil {
		return err
	}
	if ref != nil {
		return o.sameAs(ref)
	}
	return nil
}

// simulateChecked is simulateOnce followed by settle.
func simulateChecked(inst instance, traced bool, ref *outcome) (*outcome, cost, error) {
	o, c, err := simulateOnce(inst, traced)
	if err == nil {
		err = settle(o, ref)
	}
	return o, c, err
}

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 40, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
	setupOnly := flag.Bool("setup-only", false, "measure only set-up time and print it (used by the benchmark's own child processes)")
	flag.Parse()

	// At most two Ps. With one, the simulator took less CPU time, but
	// its oc_allreduce samples split into two modes, about 10 and 16 ms,
	// whose mix changed from run to run: the median's spread over runs
	// was 0.07 to 0.32, against 0.03 with two Ps in runs alternated with
	// them on the same host.
	runtime.GOMAXPROCS(min(2, runtime.GOMAXPROCS(0)))
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *setupOnly {
		setup, _, _, err := setUp(w, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		fmt.Printf("setup_s %v\n", setup.Seconds())
		return 0
	}

	var rep report
	ms := metricSet{m: map[string]metric{}}
	var tl tally
	var err error
	switch *traced {
	case 0:
		err = measureEndToEnd(w, *seed, *seconds, &ms, &tl)
	case 1:
		err = measureLayers(w, *seed, *seconds, &ms, &tl)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, r := range tl.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed simulation: %s\n", w.name, r)
	}
	for _, n := range ms.order {
		fmt.Printf("%-32s %16.6g %s\n", n, ms.m[n].Value, ms.m[n].Unit)
	}
	rep.Correct = tl.failed == 0
	rep.Attempted, rep.Failed = tl.attempted, tl.failed
	rep.Metrics = ms.m
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// setUp generates the workload's inputs from the seed and runs the first
// simulation cold. It returns the CPU time from the start of input
// generation to the end of that first simulation, which is checked, the
// inputs, and the first simulation as the reference later repeats must
// match.
func setUp(w workloadDef, seed int64) (time.Duration, instance, *outcome, error) {
	cpu0 := cpuNow()
	inst := w.gen(rand.New(rand.NewSource(seed)))
	o, _, err := simulateOnce(inst, false)
	setup := cpuNow() - cpu0
	if err == nil {
		err = settle(o, nil)
	}
	return setup, inst, o, err
}

// setupChildren is how many fresh processes measure set-up time besides
// the benchmark's own: each pays the cold costs a user's first
// simulation pays (heap growth, Tune), which one process pays only once.
const setupChildren = 4

// childSetup measures set-up time in a fresh process running this
// program with --setup-only, and waits for it to exit.
func childSetup(w workloadDef, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-only", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "setup_s "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("set-up process printed no setup_s line")
}

// warmups is how many simulations run, checked but untimed, between
// set-up and the timed window.
const warmups = 3

// minSamples is the fewest timed simulations a run takes, so that at
// least minBeyondTail lie beyond the reported p90.
const minSamples = 100

// maxLoop bounds the timed loop when the simulations are so slow that
// minSamples do not fit into the requested window.
const maxLoop = 120 * time.Second

// measureEndToEnd runs the workload untraced and sets every end-to-end
// metric.
func measureEndToEnd(w workloadDef, seed int64, seconds float64, ms *metricSet, tl *tally) error {
	setup, inst, ref, err := setUp(w, seed)
	tl.record(err)
	if err != nil {
		return nil // counted; the report says the run is not correct
	}
	setups := []float64{setup.Seconds()}
	for i := 0; i < setupChildren; i++ {
		s, err := childSetup(w, seed)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}

	// Each timed simulation runs with automatic collection off and is
	// followed, inside its timed part, by one full collection, while its
	// System is still reachable. With automatic collection the Go
	// pacer, which reads the clock, decided whether one or two
	// collections fell inside a simulation, and the check's copies of
	// the outputs added more: one bcast_ladder simulation took 9 to
	// 25 ms of CPU time depending on where they fell, and the median
	// jumped between the modes from run to run. This way every sample
	// pays for exactly one collection of a heap that holds the whole
	// simulation, and the heap returns to the same state before the
	// next one. The traced run's runtime.* metrics measure the
	// collector under its default setting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Warm up: simulations right after set-up still grow the heap.
	for i := 0; i < warmups; i++ {
		_, _, err := simulateChecked(inst, false, ref)
		tl.record(err)
		runtime.GC()
	}

	var cpus, walls []float64 // host ms per simulation
	var cpuNs, allocs, allocBytes float64
	var before, after runtime.MemStats
	start := time.Now()
	window := time.Duration(seconds * float64(time.Second))
	for elapsed := time.Duration(0); elapsed < window || (len(cpus) < minSamples && elapsed < maxLoop); elapsed = time.Since(start) {
		runtime.ReadMemStats(&before)
		o, c, err := simulateOnce(inst, false)
		if err == nil {
			gc := timedGC()
			c.cpu, c.wall = c.cpu+gc.cpu, c.wall+gc.wall
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			err = settle(o, ref)
		}
		tl.record(err)
		if err != nil {
			continue
		}
		cpus = append(cpus, float64(c.cpu)/1e6)
		walls = append(walls, float64(c.wall)/1e6)
		cpuNs += float64(c.cpu)
		allocs += float64(after.Mallocs - before.Mallocs)
		allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	}
	if len(cpus) == 0 {
		return nil
	}
	n := float64(len(cpus))
	p90, beyond, err := tailPercentile(cpus, 90)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
	}
	wallP90, _, _ := tailPercentile(walls, 90)
	fmt.Printf("samples %d timed simulations (%d beyond p90), %d set-up samples\n", len(cpus), beyond, len(setups))
	fmt.Printf("wall time, for reference only: p50 %.4g ms, p90 %.4g ms\n", median(walls), wallP90)

	ms.set("sims_per_cpu_s", "1/s", n/(cpuNs/1e9))
	ms.set("cpu_ms_p50", "ms", median(cpus))
	ms.set("cpu_ms_p90", "ms", p90)
	ms.set("cpu_ns_per_rma_op", "ns", cpuNs/(n*float64(ref.rmaOps())))
	ms.set("setup_s", "s", median(setups))
	ms.set("allocs_per_sim", "count", allocs/n)
	ms.set("alloc_mb_per_sim", "MB", allocBytes/n/1e6)
	ms.set("peak_rss_mb", "MB", peakRSSMB())
	ms.set("sim_us", "us", ref.simUs)
	ms.set("success_rate", "fraction", 1-tl.errorRate())
	return nil
}

// peakRSSMB reads the process's high-water resident set size (VmHWM).
// Where /proc is missing it falls back to the memory the Go runtime
// obtained from the system.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(v); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
