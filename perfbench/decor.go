package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/mobility"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
)

// layer names one decorated seam. Every span belongs to exactly one.
type layer uint8

const (
	lFlood layer = iota
	lUnicast
	lReachable
	lMobility
	lDispatchRead
	lDispatchWrite
	lDispatchMembership
	lPushpullDispatch
	lCoreOnQuery
	lCoreOnUpdate
	lPushpullOnQuery
	lPushpullOnUpdate
	lPolicy
	lStream
	nLayers
)

var layerNames = [nLayers]string{
	lFlood:              "netsim.flood",
	lUnicast:            "netsim.unicast",
	lReachable:          "netsim.reachable",
	lMobility:           "mobility.sample",
	lDispatchRead:       "core.dispatch.read",
	lDispatchWrite:      "core.dispatch.write",
	lDispatchMembership: "core.dispatch.membership",
	lPushpullDispatch:   "pushpull.dispatch",
	lCoreOnQuery:        "core.on_query",
	lCoreOnUpdate:       "core.on_update",
	lPushpullOnQuery:    "pushpull.on_query",
	lPushpullOnUpdate:   "pushpull.on_update",
	lPolicy:             "cache.policy",
	lStream:             "sim.stream_seed",
}

// span is one retained decorated call: its layer, wall interval in ns
// since the tracer's base, and the index of the enclosing span (-1 for
// a top-level span, which the kernel or the assembler called directly).
type span struct {
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

type frame struct {
	l     layer
	start int64
	child int64 // wall covered by nested spans
	idx   int   // retained span index, -1 when not retained
}

// tracer accumulates per-layer call counts and self time for one
// decorated stack. It is confined to the stack's kernel goroutine, like
// everything it decorates. Self time is a span's duration minus the part
// its nested spans cover; topNs sums top-level span durations, so kernel
// wall not covered by any span (heap operations, netsim relaying between
// decorated calls, protocol timers) is the residual.
type tracer struct {
	base  time.Time
	k     *sim.Kernel
	stack []frame
	calls [nLayers]uint64
	self  [nLayers]int64
	topNs int64
	qmax  int

	spans    []span
	spanCap  int
	rpccCore bool // dispatch through core classes (RPCC) or pushpull
}

func newTracer(spanCap int) *tracer {
	return &tracer{base: time.Now(), spanCap: spanCap}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(l layer) {
	if len(t.stack) == 0 && t.k != nil {
		if d := t.k.Pending(); d > t.qmax {
			t.qmax = d
		}
	}
	f := frame{l: l, idx: -1}
	if len(t.spans) < t.spanCap {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		f.idx = len(t.spans)
		t.spans = append(t.spans, span{Layer: layerNames[l], Parent: parent})
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - f.start
	t.calls[f.l]++
	t.self[f.l] += dur - f.child
	if n > 0 {
		t.stack[n-1].child += dur
	} else {
		t.topNs += dur
	}
	if f.idx >= 0 {
		t.spans[f.idx].Start, t.spans[f.idx].End = f.start, end
	}
}

// merge folds another tracer's counters into t (spans are kept per
// tracer and written separately).
func (t *tracer) merge(o *tracer) {
	for l := layer(0); l < nLayers; l++ {
		t.calls[l] += o.calls[l]
		t.self[l] += o.self[l]
	}
	t.topNs += o.topNs
	if o.qmax > t.qmax {
		t.qmax = o.qmax
	}
}

// dispatchCalls is the number of receiver invocations (deliveries).
func (t *tracer) dispatchCalls() uint64 {
	return t.calls[lDispatchRead] + t.calls[lDispatchWrite] + t.calls[lDispatchMembership] + t.calls[lPushpullDispatch]
}

// report writes every layer's calls and self time as metrics.
func (t *tracer) report(o *outcome) {
	for l := layer(0); l < nLayers; l++ {
		if l == lStream {
			continue // reported per run by the workload
		}
		o.set(layerNames[l]+".calls", "count", float64(t.calls[l]))
		o.set(layerNames[l]+".self_ns", "ns", float64(t.self[l]))
	}
	o.set("sim.queue_depth_max", "count", float64(t.qmax))
}

// writeSpanDump writes the traced runs' retained spans, as JSONL, under
// the build directory of the checkout.
func writeSpanDump(o opts, out *outcome, sets ...[]span) {
	dir := filepath.Join(o.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		out.fail("span dump: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, sets...); err != nil {
		out.fail("span dump: %v", err)
	}
}

func writeSpans(path string, sets ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for run, set := range sets {
		for _, s := range set {
			if err := enc.Encode(struct {
				Run int `json:"run"`
				span
			}{run, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// classify maps a delivered message kind onto its dispatch layer: RPCC
// read path (POLL/ACK/DATA), write path (INVALIDATION/UPDATE/GET_NEW/
// SEND_NEW) and relay membership (APPLY/APPLY_ACK/CANCEL); every kind
// the push/pull baselines handle is one pushpull layer.
func (t *tracer) classify(k protocol.Kind) layer {
	if !t.rpccCore {
		return lPushpullDispatch
	}
	switch k {
	case protocol.KindInvalidation, protocol.KindUpdate, protocol.KindGetNew, protocol.KindSendNew:
		return lDispatchWrite
	case protocol.KindApply, protocol.KindApplyAck, protocol.KindCancel:
		return lDispatchMembership
	default:
		return lDispatchRead
	}
}

// traceNet decorates the simulator network as the node.Transport (and
// node.GeoTransport) the chassis and strategies bind to. It times the
// sends and the receivers it installs, and draws no randomness and
// schedules no events of its own.
type traceNet struct {
	net *netsim.Network
	t   *tracer
}

var _ node.GeoTransport = (*traceNet)(nil)

func (n *traceNet) Len() int            { return n.net.Len() }
func (n *traceNet) Kernel() *sim.Kernel { return n.net.Kernel() }
func (n *traceNet) Up(nd int) bool      { return n.net.Up(nd) }
func (n *traceNet) Activity(nd int) uint64 {
	return n.net.Activity(nd)
}
func (n *traceNet) Position(nd int) geo.Point { return n.net.Position(nd) }

func (n *traceNet) SetReceiver(nd int, r netsim.Receiver) error {
	t := n.t
	return n.net.SetReceiver(nd, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		t.begin(t.classify(msg.Kind))
		r(k, nd, msg, meta)
		t.end()
	})
}

func (n *traceNet) Unicast(from, to int, msg protocol.Message) error {
	n.t.begin(lUnicast)
	err := n.net.Unicast(from, to, msg)
	n.t.end()
	return err
}

func (n *traceNet) GeoUnicast(from, dst int, target geo.Point, msg protocol.Message) error {
	n.t.begin(lUnicast)
	err := n.net.GeoUnicast(from, dst, target, msg)
	n.t.end()
	return err
}

func (n *traceNet) Flood(origin, ttl int, msg protocol.Message) error {
	n.t.begin(lFlood)
	err := n.net.Flood(origin, ttl, msg)
	n.t.end()
	return err
}

func (n *traceNet) Reachable(from, to int) bool {
	n.t.begin(lReachable)
	ok := n.net.Reachable(from, to)
	n.t.end()
	return ok
}

// traceField decorates the mobility field as the netsim.KineticSource
// the network samples positions and motion segments from.
type traceField struct {
	f *mobility.Field
	t *tracer
}

var _ netsim.KineticSource = (*traceField)(nil)

func (p *traceField) Len() int { return p.f.Len() }

func (p *traceField) PositionsAt(at time.Duration, dst []geo.Point) []geo.Point {
	p.t.begin(lMobility)
	out := p.f.PositionsAt(at, dst)
	p.t.end()
	return out
}

func (p *traceField) PeekPosition(i int, at time.Duration) geo.Point {
	p.t.begin(lMobility)
	pt := p.f.PeekPosition(i, at)
	p.t.end()
	return pt
}

func (p *traceField) SegmentAt(i int, at time.Duration) mobility.Segment {
	p.t.begin(lMobility)
	s := p.f.SegmentAt(i, at)
	p.t.end()
	return s
}

// tracePolicy decorates one store's replacement policy.
type tracePolicy struct {
	p cache.Policy
	t *tracer
}

func (p *tracePolicy) Name() string { return p.p.Name() }

func (p *tracePolicy) Admit(id data.ItemID, m cache.Meta) {
	p.t.begin(lPolicy)
	p.p.Admit(id, m)
	p.t.end()
}

func (p *tracePolicy) Touch(id data.ItemID, m cache.Meta) {
	p.t.begin(lPolicy)
	p.p.Touch(id, m)
	p.t.end()
}

func (p *tracePolicy) Victim() (data.ItemID, bool) {
	p.t.begin(lPolicy)
	id, ok := p.p.Victim()
	p.t.end()
	return id, ok
}

func (p *tracePolicy) Remove(id data.ItemID) {
	p.t.begin(lPolicy)
	p.p.Remove(id)
	p.t.end()
}

// streamFactory is the kernel stream factory handed to the mobility
// field, timed as stream seeding. The names match the assembler's.
func streamFactory(k *sim.Kernel, t *tracer) func(i int) *rand.Rand {
	return func(i int) *rand.Rand {
		t.begin(lStream)
		r := k.Stream(fmt.Sprintf("mobility.%d", i))
		t.end()
		return r
	}
}
