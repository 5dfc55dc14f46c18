package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
)

// The scale-smoke shape: 10k peers at Table 1 density for one simulated
// minute, auto shards, serial windows.
const (
	scaleNodes   = 10_000
	scaleSimTime = time.Minute
)

// scaleConfig mirrors cmd/scale's defaults for scaleNodes peers.
func scaleConfig(seed int64, simTime time.Duration) experiment.ScaleConfig {
	cfg := experiment.ScaleConfig{Config: experiment.DefaultConfig(experiment.StrategyRPCCSC, seed)}
	cfg.NPeers = scaleNodes
	cfg.SimTime = simTime
	cfg.RouteTableCap = 256
	cfg.LazyChurnRefresh = true
	side := 1500 * math.Sqrt(float64(scaleNodes)/50.0)
	cfg.AreaWidth = side
	cfg.AreaHeight = side
	f := time.Duration(scaleNodes / 1000)
	cfg.QueryInterval *= f
	cfg.UpdateInterval *= f
	return cfg
}

// checkScale applies cmd/scale's invariants and returns the run's
// deterministic fingerprint.
func checkScale(out *outcome, res experiment.ScaleResult) string {
	if res.Answered == 0 {
		out.fail("scale: no queries answered")
	}
	if res.TornAnswers != 0 || res.FutureAnswers != 0 {
		out.fail("scale: torn=%d future=%d", res.TornAnswers, res.FutureAnswers)
	}
	if res.GossipViolations != 0 {
		out.fail("scale: %d cross-region watermark regressions", res.GossipViolations)
	}
	h := sha256.New()
	t := res.Topology
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d %d %d %d", res.Shards, res.Issued, res.Answered, res.Failed,
		res.TotalTx, res.TotalBytes, res.Violations, res.Barriers, res.MailDelivered,
		t.FullRebuilds, t.KineticSamples, t.CertChecks, t.Rebins)
	for _, sh := range res.KernelStats.Shards {
		fmt.Fprintf(h, " %d/%d/%d", sh.EventsFired, sh.MailSent, sh.MailRecv)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runScale10k(o opts) (*outcome, error) {
	if o.trace {
		return traceScale10k(o)
	}
	out := &outcome{}

	// Set-up: the full 10k-node assembly with a 1 ms horizon.
	var setups []float64
	for r := 0; r < 7; r++ {
		s, err := timeIt(func() error {
			_, err := experiment.RunScale(scaleConfig(o.seed, time.Millisecond))
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	out.set("setup_s", "s", median(setups))

	// Measured phase: repeated same-seed runs; each must reproduce the
	// first exactly. Throughput is simulated node-seconds per CPU-second
	// of a whole run (assembly included).
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var rates []float64
	var digest string
	var res experiment.ScaleResult
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		cpu := cpuSeconds()
		var err error
		res, err = experiment.RunScale(scaleConfig(o.seed, scaleSimTime))
		cpu = cpuSeconds() - cpu
		out.rep.Attempted++
		if err != nil {
			return nil, err
		}
		d := checkScale(out, res)
		if i == 0 {
			digest = d
		} else if d != digest {
			out.fail("repeat %d digest %s differs from first run %s", i, d, digest)
		}
		rates = append(rates, scaleNodes*scaleSimTime.Seconds()/cpu)
	}
	out.rssMB = peakRSSMB()
	printDetail(map[string]any{"digest": digest, "repeats": len(rates),
		"queries_issued": res.Issued, "queries_answered": res.Answered})
	out.set("node_s_per_cpu_s", "node_s/cpu_s", median(rates))
	return out, nil
}

// traceScale10k is the traced run: region 0 of the scale run (its
// sub-kernel carries the root seed) through the decorated stack and
// untraced, plus one untraced 10k run for the sharded kernel's and the
// topology plane's own counters.
func traceScale10k(o opts) (*outcome, error) {
	out := &outcome{}
	full := scaleConfig(o.seed, scaleSimTime)
	res, err := experiment.RunScale(full)
	out.rep.Attempted++
	if err != nil {
		return nil, err
	}
	checkScale(out, res)

	region := full.Config
	region.NPeers = scaleNodes / res.Shards
	region.AreaHeight = full.AreaHeight * float64(region.NPeers) / scaleNodes
	t := newTracer(spanCap)
	var agg layerTotals
	if err := agg.add(out, region, t); err != nil {
		return nil, err
	}
	agg.report(out, t)

	ks := res.KernelStats
	var busy, stall int64
	for _, sh := range ks.Shards {
		busy += sh.BusyNs
		stall += sh.StallNs
	}
	out.set("sim.shard.busy_s", "s", float64(busy)/1e9)
	out.set("sim.shard.stall_s", "s", float64(stall)/1e9)
	if busy+stall > 0 {
		out.set("sim.shard.stall_ratio", "ratio", float64(stall)/float64(busy+stall))
	}
	out.set("sim.barriers", "count", float64(res.Barriers))
	out.set("sim.mail", "count", float64(res.MailDelivered))
	out.set("sim.event_imbalance", "ratio", ks.EventImbalance)
	setTopology(out, res.Topology)
	writeSpanDump(o, out, t.spans)
	return out, nil
}
