package main

import (
	"fmt"

	"repro/internal/algsel"
	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A workload's collective sequence driven directly on an rma.Chip,
// wired core by core as System.Run wires it and resolved through the
// algorithm registry as the public methods resolve it, so that the run
// is the same simulation (the benchmark checks that its simulated time
// matches) with the engine in reach for its switch count.

// chipCore is one core of a directly driven chip.
type chipCore struct {
	rc   *rma.Core
	port *rcce.Port
	col  *occoll.Collectives
	env  *algsel.Env
	plan *algsel.Plan // non-nil for Options.Algorithm "auto"
}

// onChip runs body on every core of a fresh 48-core chip with the
// default options and returns the engine's context switches and the
// largest per-core finishing clock in simulated µs. auto attaches the
// tuned decision table, as Options.Algorithm "auto" does.
func onChip(auto bool, body func(c *chipCore)) (switches int64, simUs float64) {
	cfg := occore.DefaultConfig()
	chip := rma.NewChipN(scc.DefaultConfig(), scc.NumCores)
	var plan *algsel.Plan
	if auto {
		plan = algsel.TuneCached(chip.Cfg.Params, chip.Topo(), chip.NCores, cfg)
	}
	finish := make([]float64, chip.NCores)
	before := chip.Engine.Switches()
	chip.Run(func(rc *rma.Core) {
		port := rcce.NewPort(rc)
		c := &chipCore{rc: rc, port: port, col: occoll.New(rc, port, cfg), plan: plan}
		c.env = algsel.NewEnv(rc, port, cfg, c.col, occore.NewBroadcaster(rc, cfg))
		body(c)
		c.col.Finish()
		finish[rc.ID()] = rc.Now().Microseconds()
	})
	return chip.Engine.Switches() - before, lastOf(finish)
}

// resolve picks the algorithm for one call as the public Core does:
// the planned choice under "auto", else the method's default.
func (c *chipCore) resolve(op algsel.Op, def string, lines int, oneSided bool) (*algsel.Algorithm, algsel.Choice) {
	ch := algsel.Choice{Alg: def}
	if c.plan != nil {
		planned, ok := c.plan.Choose(op, lines)
		if oneSided {
			planned, ok = c.plan.ChooseOneSided(op, lines)
		}
		if ok {
			ch = planned
		}
	}
	a, ok := algsel.Lookup(op, ch.Alg)
	if !ok {
		panic(fmt.Sprintf("perfbench: no registered algorithm %q for %s", ch.Alg, op))
	}
	return a, ch
}

// run executes one blocking collective.
func (c *chipCore) run(op algsel.Op, def string, oneSided bool, a algsel.Args) {
	alg, ch := c.resolve(op, def, a.Lines, oneSided)
	alg.Run(c.env, ch, a)
}

// issue starts one non-blocking collective.
func (c *chipCore) issue(op algsel.Op, a algsel.Args) *occoll.Request {
	alg, ch := c.resolve(op, "oc", a.Lines, true)
	if alg.Issue == nil {
		alg, _ = algsel.Lookup(op, "oc")
		ch = algsel.Choice{Alg: "oc"}
	}
	return alg.Issue(c.env, algsel.Choice{Alg: ch.Alg}, a)
}

// replayDefaults are the blocking default algorithms System.Replay's
// methods name, per trace op.
var replayDefaults = map[string]string{
	workload.OpBcast:     "ocbcast",
	workload.OpReduce:    "twosided",
	workload.OpAllReduce: "hybrid",
	workload.OpScatter:   "twosided",
	workload.OpGather:    "twosided",
	workload.OpAllGather: "twosided",
}

// chipReplayer is a workload.Runner over a directly driven core.
type chipReplayer struct{ c *chipCore }

func (r chipReplayer) Compute(us float64) { r.c.rc.Compute(sim.Micros(us)) }
func (r chipReplayer) Barrier()           { r.c.port.Barrier() }
func (r chipReplayer) NowUs() float64     { return r.c.rc.Now().Microseconds() }

func (r chipReplayer) args(rec workload.Record, addr, scratch int) algsel.Args {
	return algsel.Args{Root: rec.Root, Addr: addr, Scratch: scratch, Lines: rec.Lines, Reduce: collective.SumInt64}
}

func (r chipReplayer) Run(rec workload.Record, addr, scratch int) {
	r.c.run(algsel.Op(rec.Op), replayDefaults[rec.Op], false, r.args(rec, addr, scratch))
}

func (r chipReplayer) Issue(rec workload.Record, addr, scratch int) workload.Pending {
	return r.c.issue(algsel.Op(rec.Op), r.args(rec, addr, scratch))
}

// chipSwitches drives inst's collective sequence on a chip and returns
// the engine's context switches and the simulated makespan.
func chipSwitches(inst instance) (int64, float64) {
	switch x := inst.(type) {
	case *ladder:
		sw, us := onChip(false, func(c *chipCore) {
			for i, n := range x.sizes {
				c.run(algsel.OpBcast, "ocbcast", false, algsel.Args{Root: x.roots[i], Addr: x.addrs[i], Lines: n})
			}
		})
		return sw, us
	case *allreduce:
		sw, us := onChip(false, func(c *chipCore) {
			sum := algsel.Args{Lines: allreduceLines, Reduce: collective.SumInt64}
			c.run(algsel.OpAllReduce, "oc", true, sum)
			sum.Addr = x.addrB
			req := c.issue(algsel.OpAllReduce, sum)
			done := false
			for _, us := range x.slicesUs {
				c.rc.Compute(sim.Micros(us))
				if !done {
					done = req.Test()
				}
			}
			if !done {
				req.Wait()
			}
			c.run(algsel.OpAllGather, "oc", true, algsel.Args{Addr: x.addrC, Lines: allgatherLines})
		})
		return sw, us
	case *replay:
		starts := make([]float64, scc.NumCores)
		sw, last := onChip(true, func(c *chipCore) {
			l := workload.LayoutFor(x.trace, c.rc.N())
			starts[c.rc.ID()] = workload.Replay(chipReplayer{c}, x.trace, l, workload.ReplayOptions{}).StartUs
		})
		first := starts[0]
		for _, s := range starts {
			first = min(first, s)
		}
		return sw, last - first
	}
	panic(fmt.Sprintf("perfbench: no chip-level run for %T", inst))
}
