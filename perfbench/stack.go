package main

import (
	"fmt"
	"math"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/energy"
	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/mobility"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/pushpull"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	"github.com/manetlab/rpcc/internal/telemetry"
	"github.com/manetlab/rpcc/internal/workload"
)

// stack is one scenario assembled by the benchmark from the same
// exported constructors, in the same order and with the same stream
// names, as the experiment package's assembler — with the timing
// decorators between the layers. The equivalence test pins that it
// reproduces experiment.Run.
type stack struct {
	k       *sim.Kernel
	net     *netsim.Network
	traffic *stats.Traffic
	lat     *stats.Latency
	chassis *node.Chassis
	stores  []*cache.Store
}

// summary is the slice of a run's outcome the equivalence test and the
// per-layer report read.
type summary struct {
	TotalTx                  uint64
	Issued, Answered, Failed uint64
	MeanLat, P50Lat, P99Lat  time.Duration
	HitRatio                 float64
	Evictions                uint64
	Topology                 netsim.TopologyStats
	Events                   uint64
	Drops                    uint64
	AssembleNs, ResidualNs   int64
}

// buildStack assembles cfg on a fresh kernel with t's decorators.
func buildStack(cfg experiment.Config, t *tracer) (*stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel(sim.WithSeed(cfg.Seed), sim.WithHorizon(cfg.SimTime))
	t.k = k
	t.rpccCore = isRPCC(cfg.Strategy)

	terrain, err := geo.NewTerrain(cfg.AreaWidth, cfg.AreaHeight)
	if err != nil {
		return nil, err
	}
	mobCfg := mobility.Config{
		Terrain:    terrain,
		MinSpeed:   cfg.MinSpeed,
		MaxSpeed:   cfg.MaxSpeed,
		Pause:      cfg.Pause,
		SubnetCell: cfg.SubnetCell,
	}
	if cfg.RandomDirection {
		mobCfg.Model = mobility.ModelRandomDirection
	}
	field, err := mobility.NewField(mobCfg, cfg.NPeers, streamFactory(k, t))
	if err != nil {
		return nil, err
	}
	churnProc, err := churn.NewProcess(churn.Config{
		MeanUp:   cfg.SwitchInterval,
		MeanDown: cfg.MeanDown,
		Disabled: cfg.ChurnDisabled,
	}, cfg.NPeers, k)
	if err != nil {
		return nil, err
	}
	batteries := make([]*energy.Battery, cfg.NPeers)
	for i := range batteries {
		if batteries[i], err = energy.NewBattery(energy.DefaultConfig()); err != nil {
			return nil, err
		}
	}

	netCfg := netsim.DefaultConfig()
	netCfg.CommRange = cfg.CommRange
	if cfg.UseDSRRouting {
		netCfg.Routing = netsim.RoutingDSR
	}
	netCfg.LossRate = cfg.LossRate
	netCfg.SerializeTx = cfg.SerializeTx
	netCfg.Kinetic = !cfg.DisableKinetic
	netCfg.RouteTableCap = cfg.RouteTableCap
	netCfg.LazyChurnRefresh = cfg.LazyChurnRefresh
	traffic := stats.NewTraffic()
	network, err := netsim.New(netCfg, k, &traceField{f: field, t: t}, churnProc, batteries, traffic)
	if err != nil {
		return nil, err
	}

	reg, err := data.NewRegistry(cfg.NPeers)
	if err != nil {
		return nil, err
	}
	stores := make([]*cache.Store, cfg.NPeers)
	for i := range stores {
		pol, err := cache.NewPolicy(cfg.CachePolicy, cache.PolicyParams{TTL: cfg.TTP})
		if err != nil {
			return nil, err
		}
		if stores[i], err = cache.NewStoreWithPolicy(cfg.CacheNum, &tracePolicy{p: pol, t: t}); err != nil {
			return nil, err
		}
		if cfg.CachePolicy == cache.PolicyUtility {
			host := i
			stores[i].SetHopsHint(func(item data.ItemID) int {
				owner := reg.Owner(item)
				if owner < 0 || owner >= cfg.NPeers || owner == host {
					return 0
				}
				d := field.PeekPosition(host, k.Now()).Dist(field.PeekPosition(owner, k.Now()))
				return int(math.Ceil(d / cfg.CommRange))
			})
		}
	}

	aud, err := consistency.NewAuditor(reg, cfg.TTP, 5*time.Second)
	if err != nil {
		return nil, err
	}
	lat := stats.NewLatency()
	tnet := &traceNet{net: network, t: t}
	chassis, err := node.NewChassis(node.DefaultConfig(), tnet, reg, stores, lat, aud)
	if err != nil {
		return nil, err
	}
	hub := telemetry.NewHub(telemetry.LevelMetrics)
	chassis.Hub = hub
	if tr := hub.Tracer(); tr != nil {
		network.SetTracer(tr)
	}

	strat, levelFor, err := buildStrategy(cfg, k, chassis, churnProc, field, batteries)
	if err != nil {
		return nil, err
	}
	var domains [][]data.ItemID
	if cfg.WarmCaches {
		domains = warmCaches(k, cfg, reg, stores, strat)
	}
	if err := strat.Start(k); err != nil {
		return nil, err
	}

	wlCfg := workload.Config{
		Hosts:           cfg.NPeers,
		MeanQueryEvery:  cfg.QueryInterval,
		MeanUpdateEvery: cfg.UpdateInterval,
		Popularity:      cfg.Popularity,
		Hotspots:        cfg.Hotspots,
		DiurnalPeriod:   cfg.DiurnalPeriod,
		DiurnalMin:      cfg.DiurnalMin,
	}
	if cfg.Popularity == workload.PopularityCached {
		if domains == nil {
			return nil, fmt.Errorf("cached-domain workload requires WarmCaches")
		}
		wlCfg.Domain = func(host int) []data.ItemID { return domains[host] }
	}
	onQuery, onUpdate := lPushpullOnQuery, lPushpullOnUpdate
	if t.rpccCore {
		onQuery, onUpdate = lCoreOnQuery, lCoreOnUpdate
	}
	wl, err := workload.NewGenerator(wlCfg,
		func(kk *sim.Kernel, host int, item data.ItemID) {
			t.begin(onQuery)
			strat.OnQuery(kk, host, item, levelFor(host, item))
			t.end()
		},
		func(kk *sim.Kernel, host int) {
			t.begin(onUpdate)
			strat.OnUpdate(kk, host)
			t.end()
		},
	)
	if err != nil {
		return nil, err
	}
	wl.AttachTelemetry(hub)
	wl.Start(k)

	// The assembler's traffic-timeline sampler: an event stream of its
	// own, kept so the kernel's event count and order match.
	var timeline []uint64
	var lastTx uint64
	_, _ = k.Every(cfg.SimTime/60, "experiment.timeline", func(*sim.Kernel) {
		cur := traffic.TotalTx()
		timeline = append(timeline, cur-lastTx)
		lastTx = cur
	})

	return &stack{k: k, net: network, traffic: traffic, lat: lat, chassis: chassis, stores: stores}, nil
}

func isRPCC(s experiment.StrategyKind) bool {
	switch s {
	case experiment.StrategyRPCCSC, experiment.StrategyRPCCDC, experiment.StrategyRPCCWC, experiment.StrategyRPCCHY:
		return true
	}
	return false
}

// buildStrategy mirrors the assembler's strategy and per-query level
// selection for every strategy kind.
func buildStrategy(cfg experiment.Config, k *sim.Kernel, ch *node.Chassis, churnProc *churn.Process, field *mobility.Field, batteries []*energy.Battery) (experiment.Strategy, func(int, data.ItemID) consistency.Level, error) {
	fixed := func(l consistency.Level) func(int, data.ItemID) consistency.Level {
		return func(int, data.ItemID) consistency.Level { return l }
	}
	switch cfg.Strategy {
	case experiment.StrategyPull:
		c := pushpull.DefaultPullConfig()
		c.BroadcastTTL = cfg.BroadcastTTL
		s, err := pushpull.NewPull(c, ch)
		return s, fixed(consistency.LevelStrong), err
	case experiment.StrategyPush:
		c := pushpull.DefaultPushConfig()
		c.TTN = cfg.TTN
		c.BroadcastTTL = cfg.BroadcastTTL
		if cfg.Popularity == workload.PopularitySingle {
			c.ActiveSource = func(host int) bool { return host == 0 }
		}
		if c.QueryPatience < 3*cfg.TTN {
			c.QueryPatience = 3 * cfg.TTN
		}
		s, err := pushpull.NewPush(c, ch)
		return s, fixed(consistency.LevelStrong), err
	case experiment.StrategyAdaptive:
		s, err := pushpull.NewAdaptive(pushpull.DefaultAdaptiveConfig(), ch)
		return s, fixed(consistency.LevelDelta), err
	case experiment.StrategyGPSCE:
		s, err := pushpull.NewGPSCE(pushpull.DefaultGPSCEConfig(), ch)
		return s, fixed(consistency.LevelStrong), err
	}
	c := core.DefaultConfig()
	if cfg.Popularity == workload.PopularitySingle {
		c.ActiveSource = func(host int) bool { return host == 0 }
	}
	c.InvalidationTTL = cfg.InvalidationTTL
	c.TTN = cfg.TTN
	c.TTR = cfg.TTR
	c.TTP = cfg.TTP
	c.PollFallbackTTL = cfg.BroadcastTTL
	c.Omega = cfg.Omega
	c.MuCAR = cfg.MuCAR
	c.MuCS = cfg.MuCS
	c.MuCE = cfg.MuCE
	c.EagerRelayRefresh = !cfg.DisableEagerRefresh
	if cfg.AdaptiveTTN {
		c.AdaptiveTTN = true
		c.AdaptiveTTNMax = 4 * c.TTN
	}
	eng, err := core.New(c, ch, core.Telemetry{
		Switches: churnProc.Switches,
		Moves:    func(nd int) uint64 { return field.Node(nd).Moves() },
		CE:       func(nd int) float64 { return batteries[nd].CE(k.Now()) },
	})
	if err != nil {
		return nil, nil, err
	}
	switch cfg.Strategy {
	case experiment.StrategyRPCCSC:
		return eng, fixed(consistency.LevelStrong), nil
	case experiment.StrategyRPCCDC:
		return eng, fixed(consistency.LevelDelta), nil
	case experiment.StrategyRPCCWC:
		return eng, fixed(consistency.LevelWeak), nil
	case experiment.StrategyRPCCHY:
		rng := k.Stream("experiment.levels")
		levels := []consistency.Level{consistency.LevelStrong, consistency.LevelDelta, consistency.LevelWeak}
		return eng, func(int, data.ItemID) consistency.Level { return levels[rng.Intn(len(levels))] }, nil
	}
	return nil, nil, fmt.Errorf("unknown strategy %q", cfg.Strategy)
}

// warmCaches mirrors the assembler's warm placement, drawing from the
// same "experiment.warm" stream.
func warmCaches(k *sim.Kernel, cfg experiment.Config, reg *data.Registry, stores []*cache.Store, strat experiment.Strategy) [][]data.ItemID {
	rng := k.Stream("experiment.warm")
	domains := make([][]data.ItemID, cfg.NPeers)
	warm := func(host int, item data.ItemID) {
		m, err := reg.Master(item)
		if err != nil {
			return
		}
		if w, ok := strat.(interface {
			Warm(*sim.Kernel, int, data.Copy)
		}); ok {
			w.Warm(k, host, m.Current())
		} else if err := stores[host].Put(m.Current(), 0); err != nil {
			return
		}
		domains[host] = append(domains[host], item)
	}
	if cfg.Popularity == workload.PopularitySingle {
		for host := 1; host < cfg.NPeers; host++ {
			warm(host, 0)
		}
		return domains
	}
	for host := 0; host < cfg.NPeers; host++ {
		seen := map[int]bool{host: true}
		for len(seen) <= cfg.CacheNum && len(seen) < cfg.NPeers {
			item := rng.Intn(cfg.NPeers)
			if seen[item] {
				continue
			}
			seen[item] = true
			warm(host, data.ItemID(item))
		}
	}
	return domains
}

// runStack assembles and runs cfg through the decorated stack.
func runStack(cfg experiment.Config, t *tracer) (summary, error) {
	start := time.Now()
	s, err := buildStack(cfg, t)
	if err != nil {
		return summary{}, err
	}
	assembled := time.Now()
	topBefore := t.topNs
	s.k.Run()
	runNs := int64(time.Since(assembled))

	var sum summary
	sum.TotalTx = s.traffic.TotalTx()
	sum.Issued, sum.Answered, sum.Failed = s.chassis.Issued(), s.chassis.Answered(), s.chassis.Failed()
	sum.MeanLat, sum.P50Lat, sum.P99Lat = s.lat.Mean(), s.lat.Quantile(0.5), s.lat.Quantile(0.99)
	for _, st := range s.stores {
		sum.HitRatio += st.HitRatio()
		sum.Evictions += st.Evictions()
	}
	sum.HitRatio /= float64(len(s.stores))
	sum.Topology = s.net.TopologyStats()
	sum.Events = s.k.EventsFired()
	for c := stats.DropCause(0); c < stats.NumDropCauses; c++ {
		sum.Drops += s.traffic.TotalDroppedByCause(c)
	}
	sum.AssembleNs = int64(assembled.Sub(start))
	// Kernel-run wall covered by no decorated span, stashed for the
	// residual metric.
	sum.ResidualNs = runNs - (t.topNs - topBefore)
	return sum, nil
}
