package wire

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/sim"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// loopbackPair binds this daemon's socket and a silent second peer.
func loopbackPair(t *testing.T) (*net.UDPConn, map[int]string) {
	t.Helper()
	hole, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hole.Close() })
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return conn, map[int]string{0: conn.LocalAddr().String(), 1: hole.LocalAddr().String()}
}

// TestNewNodeFailsFastAfterTransport builds a daemon whose engine config
// is rejected after the transport already exists: NewNode must close
// the never-run transport and return the error, not wait forever on a
// read loop that was never started.
func TestNewNodeFailsFastAfterTransport(t *testing.T) {
	conn, peers := loopbackPair(t)
	cfg := core.DefaultConfig()
	cfg.TTR = cfg.TTN + time.Second
	errc := make(chan error, 1)
	go func() {
		_, err := NewNode(NodeConfig{
			Self: 0, Nodes: 2, Peers: peers, Conn: conn,
			Seed: 1, Strategy: StrategyRPCCSC, Core: cfg,
		})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("NewNode accepted TTR > TTN")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewNode hung closing a transport whose read loop never ran")
	}
}

// TestUncleanStopReadsNoKernelState stalls the kernel goroutine past the
// drain deadline, then releases it to issue a query — which bumps the
// chassis counters, records traffic and emits trace spans — while the
// test reads the node's report. Under -race this pins that Summary and
// TraceSpans touch no kernel-confined state after an unclean Stop.
func TestUncleanStopReadsNoKernelState(t *testing.T) {
	conn, peers := loopbackPair(t)
	nd, err := NewNode(NodeConfig{
		Self: 0, Nodes: 2, Peers: peers, Conn: conn,
		Seed: 1, Strategy: StrategyRPCCSC, Core: core.DefaultConfig(),
		Placement: []data.ItemID{1},
		Trace:     ctrace.NewCollector(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	if !nd.Inject(func(k *sim.Kernel) {
		close(entered)
		<-release
		nd.eng.OnQuery(k, 0, 1, consistency.LevelStrong)
	}) {
		t.Fatal("inject refused on a running clock")
	}
	<-entered

	if err := nd.Stop(20 * time.Millisecond); err == nil {
		t.Fatal("Stop drained cleanly past a blocked handler")
	}
	close(release)
	sum := nd.Summary()
	spans := nd.TraceSpans()
	drained := nd.Drained()
	// Join the abandoned kernel goroutine before the test ends.
	if err := nd.clock.Stop(0); err != nil {
		t.Fatal(err)
	}

	if !strings.Contains(sum, "unclean stop") || strings.Contains(sum, "issued=") {
		t.Errorf("summary after unclean stop = %q, want the drain failure and no kernel counters", sum)
	}
	if spans != nil {
		t.Errorf("TraceSpans after unclean stop returned %d spans, want nil", len(spans))
	}
	if drained {
		t.Error("Drained reports true after an unclean stop")
	}
}
