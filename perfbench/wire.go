package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/oracle"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	"github.com/manetlab/rpcc/internal/wire"
)

// The loopback cluster: wireNodes rpcc-sc daemons with Table 1 timers
// scaled 60:1 (as the wire-smoke cluster runs them), each caching every
// other daemon's item and committing its own once a second, driven by an
// open-loop Poisson query stream. A run is one of two phases:
//
//   - The load phase (--trace 0) measures throughput. It offers
//     wireLoadRate queries/s with the whole process on one P: the
//     daemons then handle several queries per wake-up, so the CPU a query
//     costs is the daemons' work rather than the Go scheduler's and the
//     host's wake-up path, which on a shared host moves by a fifth
//     between runs. The generator sleeps on a runtime timer to each due
//     instant, so queries due within the timer's granularity (about a
//     millisecond) go out together. The rate keeps the process near an
//     eighth of its one CPU, well short of the load at which poll
//     time-outs start (at 2.5 times this rate some runs failed most of
//     their queries).
//   - The latency phase (--trace 1) measures answer times. It offers
//     wireRate queries/s, a 20 s run's 60 000 answer samples (600
//     behind the p99), from a generator pacing on its own OS thread
//     with GOMAXPROCS processors. Each daemon sees 750 queries/s, a small
//     share of the roughly 20 000 it serves back to back at the
//     closed-loop round trip of about 48 us (BENCH_wire.json's
//     LoopbackQueryRTT), so the phase measures service latency rather
//     than a saturated queue.
const (
	wireNodes      = 4
	wireRate       = 3000
	wireLoadRate   = 12000
	wireWarmup     = time.Second     // idle, after the daemons start
	wireLoadWarmup = 2 * time.Second // under load, before the load phase's windows
	wireDrain      = 2 * time.Second
	wireSettle     = 500 * time.Millisecond
	wireSetups     = 101
	wireUpdate     = time.Second
	wireNoQuery    = 1000 * time.Hour // the built-in query stream stays silent
	spinWindow     = 50 * time.Microsecond
	// wireWindow is the load phase's CPU window: one invalidation period
	// (wireCore's TTN), so every window holds one round of the periodic
	// INVALIDATION floods and the polls they trigger.
	wireWindow = 2 * time.Second
	// wireRateQuantile picks the reported throughput among the windows'.
	// Other load competing for the CPUs makes the daemons handle more
	// queries per wake-up and so spend less CPU on each; the windows it
	// disturbed least are the low ones. The lower quartile reads those
	// while still passing over one or two windows slowed by a cause of
	// their own.
	wireRateQuantile = 0.25
	// wireMaxUnanswered is the share of the load phase's queries that may
	// go unanswered before the run counts as overloaded (poll time-outs
	// escalate into wider floods, which at 2.5 times wireLoadRate the
	// cluster did not recover from) and its throughput as meaningless.
	wireMaxUnanswered = 0.01
)

// benchBase anchors the monotonic nanosecond clock every wire-side
// timestamp reads.
var benchBase = time.Now()

func nowNs() int64 { return int64(time.Since(benchBase)) }

func wireCore() core.Config {
	cc := core.DefaultConfig()
	cc.TTN = 2 * time.Second
	cc.TTR = 1500 * time.Millisecond
	cc.TTP = 4 * time.Second
	cc.CoeffPeriod = time.Second
	return cc
}

// ledger is one daemon's record of the run. Every field is written only
// on that daemon's kernel goroutine (commit and answer callbacks, and the
// probes the generator injects), and read after the daemon has stopped,
// so it needs no lock.
type ledger struct {
	self    int
	epoch   time.Time
	commits []oracle.LiveCommit
	// answers hold no pointers, so however long the run, the ledger adds
	// nothing to the garbage collector's marking work; each served
	// payload is kept once in values.
	answers   []answerRec
	values    []string
	lastValue map[data.ItemID]int32

	// Per probe, in injection order: the generator's query index, the
	// probe's wall start and the kernel's virtual time when it ran.
	query   []int
	probeNs []int64
	virt    []time.Duration
	// Per answer: the query's virtual issue time and the wall instant.
	issued   []time.Duration
	answerNs []int64
}

func (l *ledger) probe(k *sim.Kernel, query int) {
	l.query = append(l.query, query)
	l.probeNs = append(l.probeNs, nowNs())
	l.virt = append(l.virt, k.Now())
}

// answerRec is one recorded answer: an oracle.LiveAnswer whose served
// payload is an index into the ledger's values.
type answerRec struct {
	item    data.ItemID
	level   consistency.Level
	id      data.ItemID
	version data.Version
	written time.Duration
	at      time.Duration
	value   int32
}

// onAnswer records the answer for the oracle and for matching.
func (l *ledger) onAnswer(k *sim.Kernel, q *node.Query, served data.Copy) {
	at := nowNs()
	v, ok := l.lastValue[served.ID]
	if !ok || l.values[v] != served.Value {
		v = int32(len(l.values))
		l.values = append(l.values, served.Value)
		l.lastValue[served.ID] = v
	}
	l.answers = append(l.answers, answerRec{
		item: q.Item, level: q.Level, id: served.ID, version: served.Version, written: served.WrittenAt,
		at: time.Duration(at) - time.Duration(l.epoch.Sub(benchBase)), value: v,
	})
	l.issued = append(l.issued, q.IssuedAt)
	l.answerNs = append(l.answerNs, at)
}

// liveAnswers expands the recorded answers for the oracle.
func (l *ledger) liveAnswers() []oracle.LiveAnswer {
	out := make([]oracle.LiveAnswer, len(l.answers))
	for i, a := range l.answers {
		out[i] = oracle.LiveAnswer{
			Node: l.self, Item: a.item, Level: a.level, At: a.at,
			Served: data.Copy{ID: a.id, Version: a.version, Value: l.values[a.value], WrittenAt: a.written},
		}
	}
	return out
}

// match pairs answers with probes after the run. The query injected
// right after probe o was issued at a virtual time in [virt[o],
// virt[o+1]], and the kernel issues a daemon's queries in probe order,
// so per item, answers sorted by issue time pair greedily with probes in
// order; a probe whose window closes before an answer's issue time
// belongs to a query that was never answered. With no failed queries
// the pairing is exact (up to swapping queries of one item issued at the
// same instant); a failed query whose window ends exactly at a later
// answer's issue time can take that answer, so the run's failure count
// bounds the mispairings. It returns each probe's answer instant (0 when
// unanswered) and the answers left unpaired.
func (l *ledger) match(itemOf func(query int) data.ItemID) (answered []int64, unmatched int) {
	answered = make([]int64, len(l.query))
	probes := make(map[data.ItemID][]int)
	for o, q := range l.query {
		item := itemOf(q)
		probes[item] = append(probes[item], o)
	}
	order := make([]int, len(l.answers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if l.issued[a] != l.issued[b] {
			return l.issued[a] < l.issued[b]
		}
		return l.answerNs[a] < l.answerNs[b]
	})
	next := make(map[data.ItemID]int)
	for _, a := range order {
		item, t := l.answers[a].item, l.issued[a]
		ps, i := probes[item], next[item]
		for i < len(ps) && ps[i]+1 < len(l.virt) && l.virt[ps[i]+1] < t {
			i++ // that probe's query was issued earlier and never answered
		}
		if i < len(ps) && l.virt[ps[i]] <= t {
			answered[ps[i]] = l.answerNs[a]
			i++
		} else {
			unmatched++
		}
		next[item] = i
	}
	return answered, unmatched
}

// plan is the open-loop schedule: per query, its due instant (ns on the
// bench clock, relative to the schedule start), daemon and item.
type plan struct {
	due    []int64
	daemon []int
	item   []data.ItemID
}

func makePlan(seed int64, length time.Duration, rate float64) plan {
	rng := rand.New(rand.NewSource(seed))
	var p plan
	end := float64(length)
	for t := rng.ExpFloat64() * 1e9 / rate; t < end; t += rng.ExpFloat64() * 1e9 / rate {
		d := rng.Intn(wireNodes)
		placement := wire.CyclicPlacement(d, wireNodes, wireNodes-1)
		p.due = append(p.due, int64(t))
		p.daemon = append(p.daemon, d)
		p.item = append(p.item, placement[rng.Intn(len(placement))])
	}
	return p
}

// cluster is one started set of daemons.
type cluster struct {
	nodes   []*wire.Node
	ledgers []*ledger
	epoch   time.Time
}

// newLedgers sizes one ledger per daemon for expect queries, so
// recording allocates nothing during the measured phase; probed ledgers
// also hold the generator's probes.
func newLedgers(expect int, probed bool) []*ledger {
	per := expect/wireNodes*5/4 + 64
	ls := make([]*ledger, wireNodes)
	for i := range ls {
		ls[i] = &ledger{
			self: i, lastValue: make(map[data.ItemID]int32),
			answers: make([]answerRec, 0, per),
			issued:  make([]time.Duration, 0, per), answerNs: make([]int64, 0, per),
		}
		if probed {
			ls[i].query = make([]int, 0, per)
			ls[i].probeNs = make([]int64, 0, per)
			ls[i].virt = make([]time.Duration, 0, per)
		}
	}
	return ls
}

// startCluster binds the sockets, assembles and starts every daemon,
// each recording into its ledger.
func startCluster(seed int64, ledgers []*ledger) (*cluster, error) {
	conns := make([]*net.UDPConn, wireNodes)
	peers := make(map[int]string, wireNodes)
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			for _, c := range conns[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("bind daemon %d: %w", i, err)
		}
		conns[i] = c
		peers[i] = c.LocalAddr().String()
	}
	c := &cluster{epoch: time.Now(), ledgers: ledgers}
	for i := 0; i < wireNodes; i++ {
		l := ledgers[i]
		l.epoch = c.epoch
		nd, err := wire.NewNode(wire.NodeConfig{
			Self: i, Nodes: wireNodes, Peers: peers, Conn: conns[i],
			Seed:           seed + int64(i)*1000003,
			Strategy:       wire.StrategyRPCCSC,
			Core:           wireCore(),
			Placement:      wire.CyclicPlacement(i, wireNodes, wireNodes-1),
			QueryInterval:  wireNoQuery,
			UpdateInterval: wireUpdate,
			OnCommit: func(item data.ItemID, v data.Version, at time.Time) {
				l.commits = append(l.commits, oracle.LiveCommit{Item: item, Version: v, At: at.Sub(l.epoch)})
			},
		})
		if err != nil {
			// Daemons built but never started cannot be stopped (their
			// clocks and read loops never ran); the process exits on
			// this error and releases their sockets.
			return nil, fmt.Errorf("build daemon %d: %w", i, err)
		}
		nd.Chassis().SetAnswerObserver(l.onAnswer)
		c.nodes = append(c.nodes, nd)
	}
	for i, nd := range c.nodes {
		if err := nd.Start(); err != nil {
			started := &cluster{nodes: c.nodes[:i]}
			started.stop(wireDrain)
			return nil, fmt.Errorf("start daemon %d: %w", i, err)
		}
	}
	return c, nil
}

// stop shuts every daemon down and returns the stop errors.
func (c *cluster) stop(drain time.Duration) []error {
	var errs []error
	for _, nd := range c.nodes {
		if err := nd.Stop(drain); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// wireRun is everything one measured cluster run produced.
type wireRun struct {
	start        int64   // bench clock at the plan's time zero
	sentNs       []int64 // latency phase, per query: when the generator injected its probe
	refused      int
	latUs        []float64
	injectUs     []float64
	lagUs        []float64
	answered     int
	unmatched    int
	divergences  int
	stopErrors   int
	cpu          float64   // load phase: process CPU seconds over the measured windows
	rates        []float64 // load phase, per window: daemon-seconds per CPU-second
	rssMB        float64   // peak RSS when the daemons stopped
	traffic      []*stats.Traffic
	readErrs     uint64
	decodeErrs   uint64
	issued       uint64
	chassisAns   uint64
	chassisFails uint64
}

// driveLoad runs the load phase's generator against c: after
// wireLoadWarmup of load, the rest of the plan is split into windows of
// about wireWindow, each read as daemon-seconds per process CPU-second.
// The caller has set GOMAXPROCS to 1.
func driveLoad(c *cluster, p plan) *wireRun {
	r := &wireRun{}
	first := sort.Search(len(p.due), func(q int) bool { return p.due[q] >= int64(wireLoadWarmup) })
	measured := len(p.due) - first
	windows := max(1, int((time.Duration(p.due[len(p.due)-1])-wireLoadWarmup+wireWindow/2)/wireWindow))
	type mark struct{ ns, cpu float64 }
	marks := make([]mark, 0, windows+1)
	stamp := func() { marks = append(marks, mark{float64(nowNs()), cpuSeconds()}) }
	time.Sleep(wireWarmup)
	r.start = nowNs()
	for q := range p.due {
		if q >= first && (q-first)*windows/measured >= len(marks) {
			stamp()
		}
		if d := r.start + p.due[q] - nowNs(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if !c.nodes[p.daemon[q]].Query(p.item[q], consistency.LevelStrong) {
			r.refused++
		}
	}
	stamp()
	r.cpu = marks[len(marks)-1].cpu - marks[0].cpu
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		r.rates = append(r.rates, wireNodes*(b.ns-a.ns)/1e9/(b.cpu-a.cpu))
	}
	return r
}

// driveLatency runs the latency phase's generator against c: each query
// goes out at its due instant, a probe injected right before it.
func driveLatency(c *cluster, p plan) *wireRun {
	r := &wireRun{sentNs: make([]int64, len(p.due)), lagUs: make([]float64, 0, len(p.due))}
	time.Sleep(wireWarmup)
	r.start = nowNs()
	done := make(chan struct{})
	go func() {
		// The generator owns its OS thread for the whole phase (the
		// thread is discarded when the goroutine exits locked), so its
		// sleeps carry the thread's own timer slack.
		runtime.LockOSThread()
		setTimerSlack(1)
		for q := range p.due {
			due := r.start + p.due[q]
			if d := time.Duration(due-nowNs()) - spinWindow; d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil)
			}
			for nowNs() < due {
			}
			nd, l := c.nodes[p.daemon[q]], c.ledgers[p.daemon[q]]
			query := q
			r.sentNs[q] = nowNs()
			if !nd.Inject(func(k *sim.Kernel) { l.probe(k, query) }) || !nd.Query(p.item[q], consistency.LevelStrong) {
				r.refused++
			}
			r.lagUs = append(r.lagUs, float64(r.sentNs[q]-due)/1e3)
		}
		close(done)
	}()
	<-done
	return r
}

// finish stops the cluster after a phase, reads the peak RSS, collects
// the daemons' counters and judges the ledgers with the live oracle. A
// latency-phase run also pairs answers with probed queries.
func finish(c *cluster, p plan, r *wireRun) error {
	time.Sleep(wireSettle)
	for _, err := range c.stop(wireDrain) {
		r.stopErrors++
		printDetail(map[string]any{"stop_error": err.Error()})
	}
	r.rssMB = peakRSSMB()

	var commits []oracle.LiveCommit
	var answers []oracle.LiveAnswer
	for i, l := range c.ledgers {
		commits = append(commits, l.commits...)
		answers = append(answers, l.liveAnswers()...)
		if r.sentNs != nil {
			answeredNs, unmatched := l.match(func(q int) data.ItemID { return p.item[q] })
			r.unmatched += unmatched
			for o, q := range l.query {
				r.injectUs = append(r.injectUs, float64(l.probeNs[o]-r.sentNs[q])/1e3)
				if answeredNs[o] != 0 {
					r.answered++
					r.latUs = append(r.latUs, float64(answeredNs[o]-(r.start+p.due[q]))/1e3)
				}
			}
		} else {
			r.answered += len(l.answers)
		}
		nd := c.nodes[i]
		r.traffic = append(r.traffic, nd.Traffic())
		r.readErrs += nd.Transport().ReadErrors()
		r.decodeErrs += nd.Transport().DecodeErrors()
		r.issued += nd.Chassis().Issued()
		r.chassisAns += nd.Chassis().Answered()
		r.chassisFails += nd.Chassis().Failed()
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].At < commits[j].At })
	sort.Slice(answers, func(i, j int) bool { return answers[i].At < answers[j].At })
	cc := wireCore()
	divs, err := oracle.JudgeLive(commits, answers, oracle.LiveSpec{
		Envelopes: map[consistency.Level]time.Duration{
			consistency.LevelStrong: cc.TTR,
			consistency.LevelDelta:  cc.TTP + cc.TTR,
		},
		Slack:   time.Second,
		Inflate: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	r.divergences = len(divs)
	return nil
}

// runCluster sets the cluster up wireSetups times (reporting the median
// set-up wall), drives the last one through the run's phase and checks
// the outcome.
func runCluster(o opts, out *outcome) (*wireRun, error) {
	length, rate := wireLoadWarmup+time.Duration(o.seconds)*time.Second, float64(wireLoadRate)
	if o.trace {
		length, rate = time.Duration(o.seconds)*time.Second, wireRate
	}
	p := makePlan(o.seed, length, rate)
	var setups []float64
	var c *cluster
	for i := 0; i < wireSetups; i++ {
		expect := 0 // only the last cluster, the measured one, records
		if i == wireSetups-1 {
			expect = len(p.due)
		}
		ledgers := newLedgers(expect, o.trace)
		s, err := timeIt(func() error {
			var err error
			c, err = startCluster(o.seed, ledgers)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if i < wireSetups-1 {
			if errs := c.stop(wireDrain); len(errs) > 0 {
				return nil, fmt.Errorf("stop set-up cluster: %v", errs[0])
			}
		}
	}
	out.set("setup_s", "s", median(setups))
	var r *wireRun
	if o.trace {
		r = driveLatency(c, p)
	} else {
		r = driveLoad(c, p)
	}
	if err := finish(c, p, r); err != nil {
		return nil, err
	}
	out.rssMB = r.rssMB
	out.rep.Attempted = int64(len(p.due))
	out.rep.Failed = int64(r.refused + len(p.due) - r.answered)
	verdict := "CONFORMANT"
	if r.divergences != 0 || r.stopErrors != 0 {
		verdict = "DIVERGENT"
		out.fail("wire: live oracle DIVERGENT (divergences=%d stop-errors=%d)", r.divergences, r.stopErrors)
	}
	if unanswered := len(p.due) - r.answered; !o.trace && float64(unanswered) > wireMaxUnanswered*float64(len(p.due)) {
		out.fail("wire: %d of %d queries unanswered: the cluster was overloaded", unanswered, len(p.due))
	}
	if r.unmatched != 0 {
		out.fail("wire: %d answers matched no probed query", r.unmatched)
	}
	if r.issued != uint64(len(p.due)-r.refused) {
		out.fail("wire: daemons issued %d queries, generator sent %d", r.issued, len(p.due)-r.refused)
	}
	if r.chassisAns != uint64(r.answered) {
		out.fail("wire: daemons answered %d queries, %d recorded", r.chassisAns, r.answered)
	}
	var tx uint64
	for _, t := range r.traffic {
		tx += t.TotalTx()
	}
	detail := map[string]any{
		"queries": len(p.due), "answered": r.answered, "failed": r.chassisFails, "refused": r.refused,
		"judged": r.chassisAns, "verdict": verdict, "offered_per_s": rate,
		"frames_per_query": float64(tx) / float64(len(p.due)), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	if o.trace {
		detail["answer_p50_us"] = quantile(r.latUs, 0.5)
		detail["answer_p90_us"] = quantile(r.latUs, 0.9)
		detail["answer_p99_us"] = quantile(r.latUs, 0.99)
		detail["gen_lag_p50_us"] = quantile(r.lagUs, 0.5)
	} else {
		detail["cpu_s"] = r.cpu
		detail["window_rates"] = r.rates
	}
	printDetail(detail)
	return r, nil
}

func runWireLoopback(o opts) (*outcome, error) {
	out := &outcome{}
	if !o.trace {
		runtime.GOMAXPROCS(1)
	}
	r, err := runCluster(o, out)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceWire(out, r)
	}
	out.set("node_s_per_cpu_s", "node_s/cpu_s", quantile(r.rates, wireRateQuantile))
	return out, nil
}

// traceWire reports the wire-side layers of the measured run: inject
// wait, generator lag, transport counters, the frame codec over the
// run's frame mix, and the bare loopback UDP floor.
func traceWire(out *outcome, r *wireRun) (*outcome, error) {
	delete(out.rep.Metrics, "setup_s")
	out.set("wire.answer_p50_us", "us", quantile(r.latUs, 0.5))
	out.set("wire.answer_p90_us", "us", quantile(r.latUs, 0.9))
	out.set("wire.answer_p99_us", "us", quantile(r.latUs, 0.99))
	out.set("wire.inject_wait_p50_us", "us", quantile(r.injectUs, 0.5))
	out.set("wire.inject_wait_p99_us", "us", quantile(r.injectUs, 0.99))
	out.set("wire.gen_lag_p50_us", "us", quantile(r.lagUs, 0.5))
	out.set("wire.gen_lag_p99_us", "us", quantile(r.lagUs, 0.99))
	var tx, bytes uint64
	mix := make(map[protocol.Kind]uint64)
	for _, t := range r.traffic {
		tx += t.TotalTx()
		bytes += t.TotalBytes()
		for _, kc := range t.Snapshot() {
			mix[kc.Kind] += kc.Tx
		}
	}
	out.set("wire.tx", "count", float64(tx))
	out.set("wire.read_errors", "count", float64(r.readErrs))
	out.set("wire.decode_errors", "count", float64(r.decodeErrs))
	out.set("node.issued", "count", float64(r.issued))
	out.set("node.answered", "count", float64(r.chassisAns))
	out.set("node.failed", "count", float64(r.chassisFails))
	if tx > 0 {
		out.set("protocol.frame_bytes", "bytes", float64(bytes)/float64(tx))
	}
	enc, dec, frame, err := codecCost(mix)
	if err != nil {
		return nil, err
	}
	out.set("protocol.encode_ns", "ns", enc)
	out.set("protocol.decode_ns", "ns", dec)
	floor, err := udpFloor(frame)
	if err != nil {
		return nil, err
	}
	out.set("wire.udp_floor_us", "us", floor)
	return out, nil
}

// contentKinds carry a full data copy.
var contentKinds = map[protocol.Kind]bool{
	protocol.KindUpdate: true, protocol.KindSendNew: true, protocol.KindPollAckB: true,
	protocol.KindDataReply: true, protocol.KindPullReply: true,
}

// floodKinds travel as flood frames on the wire.
var floodKinds = map[protocol.Kind]bool{
	protocol.KindInvalidation: true, protocol.KindPoll: true, protocol.KindDataRequest: true,
}

func sampleFrame(k protocol.Kind) protocol.Frame {
	const item, v = data.ItemID(1), data.Version(42)
	msg := protocol.Message{Kind: k, Item: item, Origin: 1, Version: v, Seq: 123456}
	if contentKinds[k] {
		msg.Copy = data.Copy{ID: item, Version: v, Value: data.ValueFor(item, v), WrittenAt: 90 * time.Second}
	}
	f := protocol.Frame{From: 1, To: 2, Seq: 98765, Msg: msg}
	if floodKinds[k] {
		f.Flood, f.To, f.TTL = true, 0, 3
	}
	return f
}

// codecCost times MarshalFrame and UnmarshalFrame per frame over the
// recorded kind mix (each kind weighted by its frame count) and returns
// the mean costs in ns plus the mix's most frequent frame.
func codecCost(mix map[protocol.Kind]uint64) (encNs, decNs float64, typical []byte, err error) {
	var total, best uint64
	for k, n := range mix {
		total += n
		if n > best {
			best = n
			if typical, err = protocol.MarshalFrame(sampleFrame(k)); err != nil {
				return 0, 0, nil, err
			}
		}
	}
	if total == 0 {
		return 0, 0, nil, fmt.Errorf("wire run sent no frames")
	}
	const reps = 20000
	for k, n := range mix {
		f := sampleFrame(k)
		buf, err := protocol.MarshalFrame(f)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("marshal %v: %w", k, err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if buf, err = protocol.MarshalFrame(f); err != nil {
				return 0, 0, nil, err
			}
		}
		enc := float64(time.Since(start)) / reps
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := protocol.UnmarshalFrame(buf); err != nil {
				return 0, 0, nil, err
			}
		}
		dec := float64(time.Since(start)) / reps
		w := float64(n) / float64(total)
		encNs += w * enc
		decNs += w * dec
	}
	return encNs, decNs, typical, nil
}

// udpFloor is the median round trip of frame between two
// benchmark-owned loopback sockets: the transport's lower bound with no
// protocol engine, clock or codec in the path.
func udpFloor(frame []byte) (float64, error) {
	a, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	done := make(chan error, 1)
	const rounds = 3000
	go func() {
		buf := make([]byte, 2048)
		for i := 0; i < rounds; i++ {
			n, from, err := b.ReadFromUDP(buf)
			if err == nil {
				_, err = b.WriteToUDP(buf[:n], from)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	buf := make([]byte, 2048)
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := nowNs()
		if _, err := a.WriteToUDP(frame, b.LocalAddr().(*net.UDPAddr)); err != nil {
			return 0, err
		}
		if err := a.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return 0, err
		}
		if _, _, err := a.ReadFromUDP(buf); err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(nowNs()-start)/1e3)
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// setTimerSlack sets the calling thread's timer slack in ns, so its
// sleeps end as close to the requested instant as the kernel allows.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}
