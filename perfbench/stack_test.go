package main

import (
	"math"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/telemetry"
)

// TestDecoratedStackReproducesRun pins that the traced stack is the
// program experiment.Run executes: for every strategy's Table 1 config
// (and one scale-shaped config) the decorated run matches the plain run
// in traffic, query accounting, latency, cache hit ratio and topology
// maintenance, while the decorators saw the work.
func TestDecoratedStackReproducesRun(t *testing.T) {
	var cfgs []experiment.Config
	for _, s := range []experiment.StrategyKind{
		experiment.StrategyPull, experiment.StrategyPush,
		experiment.StrategyRPCCSC, experiment.StrategyRPCCDC,
		experiment.StrategyRPCCWC, experiment.StrategyRPCCHY,
		experiment.StrategyAdaptive, experiment.StrategyGPSCE,
	} {
		cfg := experiment.DefaultConfig(s, 7)
		cfg.SimTime = 10 * time.Minute
		cfgs = append(cfgs, cfg)
	}
	scaled := experiment.DefaultConfig(experiment.StrategyRPCCSC, 7)
	scaled.NPeers = 500
	scaled.AreaWidth = 1500 * math.Sqrt(500/50.0)
	scaled.AreaHeight = scaled.AreaWidth
	scaled.RouteTableCap = 256
	scaled.LazyChurnRefresh = true
	scaled.SimTime = 20 * time.Second
	cfgs = append(cfgs, scaled)

	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(string(cfg.Strategy)+"/"+cfg.Key(), func(t *testing.T) {
			res, err := experiment.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(0)
			got, err := runStack(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			want := summary{
				TotalTx: res.TotalTx, Issued: res.Issued, Answered: res.Answered, Failed: res.Failed,
				MeanLat: res.MeanLatency, P50Lat: res.P50Latency, P99Lat: res.P99Latency,
				HitRatio: res.MeanHitRatio,
			}
			have := summary{
				TotalTx: got.TotalTx, Issued: got.Issued, Answered: got.Answered, Failed: got.Failed,
				MeanLat: got.MeanLat, P50Lat: got.P50Lat, P99Lat: got.P99Lat,
				HitRatio: got.HitRatio,
			}
			if have != want {
				t.Errorf("decorated stack %+v, experiment.Run %+v", have, want)
			}
			topo := got.Topology
			for _, c := range []struct {
				family, key, value string
				got                uint64
			}{
				{"rpcc_topology_snapshots_total", "mode", "full_rebuild", topo.FullRebuilds},
				{"rpcc_topology_snapshots_total", "mode", "kinetic_sample", topo.KineticSamples},
				{"rpcc_topology_link_events_total", "dir", "make", topo.LinkMakes},
				{"rpcc_topology_link_events_total", "dir", "break", topo.LinkBreaks},
				{"rpcc_topology_kinetic_work_total", "event", "cert_check", topo.CertChecks},
				{"rpcc_topology_kinetic_work_total", "event", "rebin", topo.Rebins},
				{"rpcc_topology_route_maintenance_total", "outcome", "repaired", topo.RoutesRepaired},
				{"rpcc_topology_route_maintenance_total", "outcome", "dropped", topo.RoutesDropped},
				{"rpcc_topology_route_maintenance_total", "outcome", "full_reset", topo.RouteFullResets},
			} {
				want := res.Telemetry.CounterValue(c.family, telemetry.Label{Key: c.key, Value: c.value})
				if float64(c.got) != want {
					t.Errorf("%s{%s=%s}: decorated %d, experiment.Run %g", c.family, c.key, c.value, c.got, want)
				}
			}
			if tr.calls[lFlood]+tr.calls[lUnicast] == 0 || tr.dispatchCalls() == 0 || tr.calls[lMobility] == 0 || tr.calls[lPolicy] == 0 {
				t.Errorf("decorators missed the work: calls %v", tr.calls)
			}
			if len(tr.stack) != 0 {
				t.Errorf("%d spans left open", len(tr.stack))
			}
		})
	}
}

// TestTracerSelfTime checks the self-time identity: nested spans' time
// is charged to the child, and the parent keeps only the remainder.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(10)
	tr.begin(lDispatchRead)
	time.Sleep(2 * time.Millisecond)
	tr.begin(lFlood)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	parent, child := tr.self[lDispatchRead], tr.self[lFlood]
	if child < int64(2*time.Millisecond) || parent < int64(2*time.Millisecond) {
		t.Fatalf("self times parent=%d child=%d, want each >= 2ms", parent, child)
	}
	if parent+child != tr.topNs {
		t.Fatalf("self times %d+%d do not sum to the top-level span %d", parent, child, tr.topNs)
	}
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("span parents %+v", tr.spans)
	}
}

// TestLedgerMatchesAnswersToProbes drives the wire ledger's matching
// rule: answers for one item arriving out of order, a query issued at
// the same virtual instant as a later probe, and a never-answered query
// all pair with their own probes.
func TestLedgerMatchesAnswersToProbes(t *testing.T) {
	items := []data.ItemID{1, 1, 2, 1, 1}
	itemOf := func(q int) data.ItemID { return items[q] }
	k := sim.NewKernel()
	l := &ledger{}
	answer := func(item data.ItemID, issued time.Duration, at int64) {
		l.answers = append(l.answers, answerRec{item: item})
		l.issued = append(l.issued, issued)
		l.answerNs = append(l.answerNs, at)
	}
	l.probe(k, 0) // query 0 issued at 0 and never answered
	k.RunUntil(time.Millisecond)
	l.probe(k, 1) // query 1 issued at 1.5ms, after the kernel advanced
	k.RunUntil(2 * time.Millisecond)
	l.probe(k, 2) // query 2 (item 2) issued at 2ms
	l.probe(k, 3) // queries 3 and 4 issued at 3ms, behind probes at 2ms and 3ms
	k.RunUntil(3 * time.Millisecond)
	l.probe(k, 4)

	answer(1, 3*time.Millisecond, 500)    // one of queries 3 and 4, answered first
	answer(1, 1500*time.Microsecond, 600) // query 1
	answer(2, 2*time.Millisecond, 700)    // query 2
	answer(1, 3*time.Millisecond, 800)    // the other one
	got, unmatched := l.match(itemOf)
	want := []int64{0, 600, 700, 500, 800}
	if unmatched != 0 {
		t.Fatalf("%d answers unmatched", unmatched)
	}
	for o := range want {
		if (got[o] == 0) != (want[o] == 0) {
			t.Fatalf("probe answers %v, want the pattern of %v", got, want)
		}
	}
	answer(2, 5*time.Millisecond, 900)
	if _, unmatched := l.match(itemOf); unmatched != 1 {
		t.Fatalf("an answer with no query of its item matched a probe")
	}
}

// TestLedgerAnswersRoundTrip pins that the compact answer ledger gives
// the oracle every answer's fields back, payloads included, also when a
// later answer serves a different payload for the same version.
func TestLedgerAnswersRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	l := newLedgers(4, false)[2]
	l.epoch = benchBase
	served := []data.Copy{
		{ID: 1, Version: 3, Value: data.ValueFor(1, 3), WrittenAt: time.Second},
		{ID: 1, Version: 3, Value: data.ValueFor(1, 3), WrittenAt: time.Second},
		{ID: 3, Version: 1, Value: data.ValueFor(3, 1), WrittenAt: 2 * time.Second},
		{ID: 1, Version: 3, Value: "torn", WrittenAt: time.Second},
	}
	for i, c := range served {
		l.onAnswer(k, &node.Query{Item: c.ID, Level: consistency.Level(i % 2)}, c)
	}
	got := l.liveAnswers()
	if len(got) != len(served) || len(l.values) != 3 {
		t.Fatalf("%d answers from %d, %d payloads kept", len(got), len(served), len(l.values))
	}
	for i, a := range got {
		if a.Node != 2 || a.Item != served[i].ID || a.Level != consistency.Level(i%2) || a.Served != served[i] || a.At <= 0 {
			t.Fatalf("answer %d = %+v, served %+v", i, a, served[i])
		}
	}
}
