package main

import (
	"runtime"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/netsim"
)

// layerTotals accumulates traced runs and their untraced twins.
type layerTotals struct {
	runs                         int
	events, tx, drops            uint64
	issued, answered, failed     uint64
	hitSum                       float64
	evictions                    uint64
	topo                         netsim.TopologyStats
	residualNs, assembleNs       int64
	tracedNs, untracedNs         int64
	mallocs, allocBytes, gcPause uint64
}

// add runs cfg untraced through experiment.Run (timing it and counting
// its allocations), then through the decorated stack with t, and checks
// the two agree.
func (a *layerTotals) add(out *outcome, cfg experiment.Config, t *tracer) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := experiment.Run(cfg)
	a.untracedNs += int64(time.Since(start))
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	a.mallocs += after.Mallocs - before.Mallocs
	a.allocBytes += after.TotalAlloc - before.TotalAlloc
	a.gcPause += after.PauseTotalNs - before.PauseTotalNs

	runtime.GC()
	start = time.Now()
	sum, err := runStack(cfg, t)
	a.tracedNs += int64(time.Since(start))
	if err != nil {
		return err
	}
	out.rep.Attempted += 2
	if sum.TotalTx != res.TotalTx || sum.Issued != res.Issued || sum.Answered != res.Answered ||
		sum.Failed != res.Failed || sum.P50Lat != res.P50Latency || sum.P99Lat != res.P99Latency {
		out.fail("%s seed %d: decorated stack (tx=%d %d/%d/%d) diverged from experiment.Run (tx=%d %d/%d/%d)",
			cfg.Strategy, cfg.Seed, sum.TotalTx, sum.Issued, sum.Answered, sum.Failed,
			res.TotalTx, res.Issued, res.Answered, res.Failed)
	}

	a.runs++
	a.events += sum.Events
	a.tx += sum.TotalTx
	a.drops += sum.Drops
	a.issued += sum.Issued
	a.answered += sum.Answered
	a.failed += sum.Failed
	a.hitSum += sum.HitRatio
	a.evictions += sum.Evictions
	a.topo.Add(sum.Topology)
	a.residualNs += sum.ResidualNs
	a.assembleNs += sum.AssembleNs
	return nil
}

// report sets every per-layer metric the traced runs measure; t holds
// the merged span counters of all of them.
func (a *layerTotals) report(out *outcome, t *tracer) {
	t.report(out)
	runs := float64(a.runs)
	events := float64(a.events)
	out.set("sim.events", "count", events)
	out.set("sim.residual_ns_per_event", "ns", float64(a.residualNs)/events)
	out.set("sim.stream_seed_s", "s", float64(t.self[lStream])/1e9/runs)
	out.set("experiment.assemble_s", "s", float64(a.assembleNs)/1e9/runs)
	out.set("netsim.tx", "count", float64(a.tx))
	if d := t.dispatchCalls(); d > 0 {
		out.set("netsim.tx_per_delivery", "ratio", float64(a.tx)/float64(d))
	}
	out.set("netsim.drops", "count", float64(a.drops))
	setTopology(out, a.topo)
	out.set("node.issued", "count", float64(a.issued))
	out.set("node.answered", "count", float64(a.answered))
	out.set("node.failed", "count", float64(a.failed))
	out.set("cache.hit_ratio", "ratio", a.hitSum/runs)
	out.set("cache.evictions", "count", float64(a.evictions))
	out.set("runtime.allocs_per_event", "count", float64(a.mallocs)/events)
	out.set("runtime.bytes_per_event", "bytes", float64(a.allocBytes)/events)
	out.set("runtime.gc_pause_s", "s", float64(a.gcPause)/1e9)
	out.set("trace.overhead_ratio", "ratio", float64(a.tracedNs)/float64(a.untracedNs))
}

func setTopology(out *outcome, s netsim.TopologyStats) {
	out.set("netsim.topo.full_rebuilds", "count", float64(s.FullRebuilds))
	out.set("netsim.topo.kinetic_samples", "count", float64(s.KineticSamples))
	out.set("netsim.topo.cert_checks", "count", float64(s.CertChecks))
	out.set("netsim.topo.rebins", "count", float64(s.Rebins))
	out.set("netsim.topo.link_events", "count", float64(s.LinkMakes+s.LinkBreaks))
	out.set("netsim.topo.routes_repaired", "count", float64(s.RoutesRepaired))
}
