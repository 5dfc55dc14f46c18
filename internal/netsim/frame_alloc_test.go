package netsim

import (
	"testing"

	"github.com/manetlab/rpcc/internal/protocol"
)

// deliveredAllocs runs send to completion once to warm the frame, flood
// and event freelists, checks it delivers want messages, then reports
// the steady-state allocations per delivered message.
func deliveredAllocs(t *testing.T, h *harness, want int, send func() error) float64 {
	t.Helper()
	round := func() {
		if err := send(); err != nil {
			t.Fatal(err)
		}
		h.k.Run()
		if len(h.got) != want {
			t.Fatalf("delivered %d messages, want %d", len(h.got), want)
		}
		h.got = h.got[:0]
	}
	round()
	return testing.AllocsPerRun(200, round) / float64(want)
}

// TestMultiHopDeliveryAllocFree pins the pooled in-air frames: once the
// freelists are warm, neither a multi-hop flood nor a multi-hop unicast
// allocates anything per delivered message.
func TestMultiHopDeliveryAllocFree(t *testing.T) {
	msg := testMsg(protocol.KindPoll)

	t.Run("flood", func(t *testing.T) {
		h := newHarness(t, 6, false)
		// TTL 4 from one end of the line reaches nodes 1..4, each
		// reception but the last relayed by a fresh rebroadcast.
		if avg := deliveredAllocs(t, h, 4, func() error { return h.net.Flood(0, 4, msg) }); avg != 0 {
			t.Errorf("multi-hop flood allocates %.2f per delivered message, want 0", avg)
		}
	})

	t.Run("unicast", func(t *testing.T) {
		h := newHarness(t, 6, false)
		// Five hops end to end along the line.
		if avg := deliveredAllocs(t, h, 1, func() error { return h.net.Unicast(0, 5, msg) }); avg != 0 {
			t.Errorf("multi-hop unicast allocates %.2f per delivered message, want 0", avg)
		}
	})
}
