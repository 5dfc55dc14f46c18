package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(3*time.Second, "c", func(*Kernel) { order = append(order, 3) })
	k.After(1*time.Second, "a", func(*Kernel) { order = append(order, 1) })
	k.After(2*time.Second, "b", func(*Kernel) { order = append(order, 2) })
	end := k.Run()
	if end != 3*time.Second {
		t.Errorf("Run() = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		k.After(time.Second, name, func(*Kernel) { order = append(order, name) })
	}
	k.Run()
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("order = %v, want FIFO at same instant", order)
	}
}

func TestAtRejectsPast(t *testing.T) {
	k := NewKernel()
	k.After(5*time.Second, "advance", func(kk *Kernel) {
		if _, err := kk.At(time.Second, "past", func(*Kernel) {}); err == nil {
			t.Error("At(past) succeeded, want error")
		}
	})
	k.Run()
}

func TestAtRejectsNilHandler(t *testing.T) {
	k := NewKernel()
	if _, err := k.At(time.Second, "nil", nil); err == nil {
		t.Fatal("At(nil handler) succeeded, want error")
	}
}

func TestAfterClampsNegative(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(-time.Second, "neg", func(*Kernel) { fired = true })
	k.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0 after clamped event", k.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.After(time.Second, "x", func(*Kernel) { fired = true })
	if !k.Cancel(e) {
		t.Fatal("Cancel returned false on pending event")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	k := NewKernel()
	e := k.After(time.Second, "x", func(*Kernel) {})
	k.Run()
	if k.Cancel(e) {
		t.Fatal("Cancel returned true on fired event")
	}
}

func TestCancelNil(t *testing.T) {
	k := NewKernel()
	if k.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestHorizonStopsRun(t *testing.T) {
	k := NewKernel(WithHorizon(10 * time.Second))
	count := 0
	stop, err := k.Every(3*time.Second, "tick", func(*Kernel) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	end := k.Run()
	if end != 10*time.Second {
		t.Errorf("Run() = %v, want horizon 10s", end)
	}
	if count != 3 { // ticks at 3, 6, 9
		t.Errorf("ticks = %d, want 3", count)
	}
}

func TestHorizonAdvancesClockWhenQueueDrains(t *testing.T) {
	k := NewKernel(WithHorizon(time.Minute))
	k.After(time.Second, "only", func(*Kernel) {})
	end := k.Run()
	if end != time.Minute {
		t.Errorf("Run() = %v, want clock advanced to horizon", end)
	}
}

func TestEveryStop(t *testing.T) {
	k := NewKernel(WithHorizon(time.Minute))
	count := 0
	var stop func()
	var err error
	stop, err = k.Every(time.Second, "tick", func(*Kernel) {
		count++
		if count == 5 {
			stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if count != 5 {
		t.Errorf("ticks = %d, want 5 after stop", count)
	}
}

func TestEveryRejectsNonPositivePeriod(t *testing.T) {
	k := NewKernel()
	if _, err := k.Every(0, "bad", func(*Kernel) {}); err == nil {
		t.Fatal("Every(0) succeeded, want error")
	}
	if _, err := k.Every(-time.Second, "bad", func(*Kernel) {}); err == nil {
		t.Fatal("Every(-1s) succeeded, want error")
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel()
	k.After(time.Second, "a", func(kk *Kernel) { kk.Stop() })
	fired := false
	k.After(2*time.Second, "b", func(*Kernel) { fired = true })
	k.Run()
	if fired {
		t.Fatal("event after Stop fired")
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
}

func TestRunUntilSteps(t *testing.T) {
	k := NewKernel()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		k.After(d, "e", func(kk *Kernel) { fired = append(fired, kk.Now()) })
	}
	k.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", k.Now())
	}
	k.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if k.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want clock advanced to 10s", k.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse Handler
	recurse = func(kk *Kernel) {
		depth++
		if depth < 10 {
			kk.After(time.Second, "r", recurse)
		}
	}
	k.After(time.Second, "r", recurse)
	end := k.Run()
	if depth != 10 {
		t.Errorf("depth = %d, want 10", depth)
	}
	if end != 10*time.Second {
		t.Errorf("Run() = %v, want 10s", end)
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	a := NewKernel(WithSeed(42))
	b := NewKernel(WithSeed(42))
	for i := 0; i < 100; i++ {
		if a.Stream("mobility").Int63() != b.Stream("mobility").Int63() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestStreamsAreIndependentByName(t *testing.T) {
	k := NewKernel(WithSeed(42))
	a := k.Stream("alpha")
	b := k.Stream("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams alpha/beta produced %d identical values of 64", same)
	}
}

func TestStreamIsStableAcrossCreationOrder(t *testing.T) {
	a := NewKernel(WithSeed(7))
	b := NewKernel(WithSeed(7))
	// Create in different orders; named streams must not depend on order.
	a.Stream("x")
	av := a.Stream("y").Int63()
	b.Stream("y") // created first on b
	b.Stream("x")
	bv := b.streams["y"]
	_ = bv
	b2 := NewKernel(WithSeed(7))
	bv2 := b2.Stream("y").Int63()
	if av != bv2 {
		t.Fatal("stream value depends on creation order")
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	names := []string{"a", "b", "ab", "ba", "mobility", "churn", "workload"}
	seen := make(map[int64]string, len(names))
	for _, n := range names {
		s := deriveSeed(42, n)
		if prev, ok := seen[s]; ok {
			t.Fatalf("deriveSeed collision: %q and %q", prev, n)
		}
		seen[s] = n
	}
}

func TestDeriveSeedNonNegativeProperty(t *testing.T) {
	f := func(root int64, name string) bool {
		return deriveSeed(root, name) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventQueueOrderingProperty(t *testing.T) {
	// Property: regardless of the (bounded) delays scheduled, handlers
	// observe a non-decreasing clock.
	f := func(delays []uint16) bool {
		k := NewKernel()
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			k.After(time.Duration(d)*time.Millisecond, "p", func(kk *Kernel) {
				if kk.Now() < last {
					ok = false
				}
				last = kk.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEventsFiredCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.After(time.Duration(i)*time.Second, "e", func(*Kernel) {})
	}
	e := k.After(time.Minute, "cancelled", func(*Kernel) {})
	k.Cancel(e)
	k.Run()
	if k.EventsFired() != 7 {
		t.Fatalf("EventsFired() = %d, want 7", k.EventsFired())
	}
}

func TestFreelistRecyclesFiredEvents(t *testing.T) {
	k := NewKernel()
	e1 := k.After(time.Second, "first", func(*Kernel) {})
	k.Run()
	if len(k.free) != 1 {
		t.Fatalf("freelist size = %d after fire, want 1", len(k.free))
	}
	if k.free[0].fn != nil {
		t.Fatal("recycled event retains its handler closure")
	}
	e2 := k.After(time.Second, "second", func(*Kernel) {})
	if e1 != e2 {
		t.Fatal("second scheduling did not reuse the fired event")
	}
	if e2.Fired() || e2.Cancelled() || e2.Label() != "second" {
		t.Fatalf("reused event not reset: fired=%v cancelled=%v label=%q",
			e2.Fired(), e2.Cancelled(), e2.Label())
	}
	k.Run()
	if k.EventsFired() != 2 {
		t.Fatalf("EventsFired() = %d, want 2", k.EventsFired())
	}
}

func TestFreelistCollectsCancelledEvents(t *testing.T) {
	k := NewKernel()
	e := k.After(time.Second, "doomed", func(*Kernel) { t.Fatal("cancelled event fired") })
	k.Cancel(e)
	k.Run()
	if len(k.free) != 1 {
		t.Fatalf("freelist size = %d after cancelled collection, want 1", len(k.free))
	}
	if !e.Cancelled() {
		t.Fatal("handle lost cancelled state before reuse")
	}
}

func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	// Warm up: one fired event seeds the freelist.
	k.After(0, "warm", func(*Kernel) {})
	k.Run()
	fn := func(*Kernel) {}
	if avg := testing.AllocsPerRun(200, func() {
		k.After(0, "hot", fn)
		k.Run()
	}); avg != 0 {
		t.Errorf("steady-state schedule+fire allocates %.2f/op, want 0", avg)
	}
}

func TestNextEventAt(t *testing.T) {
	k := NewKernel()
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("empty queue reported a next event")
	}
	k.After(5*time.Second, "b", func(*Kernel) {})
	k.After(2*time.Second, "a", func(*Kernel) {})
	if when, ok := k.NextEventAt(); !ok || when != 2*time.Second {
		t.Fatalf("next = (%v, %v), want (2s, true)", when, ok)
	}
	k.RunUntil(3 * time.Second)
	if when, ok := k.NextEventAt(); !ok || when != 5*time.Second {
		t.Fatalf("after draining: next = (%v, %v), want (5s, true)", when, ok)
	}
	k.RunUntil(10 * time.Second)
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("drained queue reported a next event")
	}
}

// TestFireOrderMatchesSortProperty drives random schedules through the
// kernel: many events share an instant, handlers schedule follow-ups
// (some at the current instant) and cancel pending events, the run is
// stepped with RunUntil and finished with Run, sometimes under a
// horizon. The fired sequence must be exactly the non-cancelled events
// due by the horizon, sorted by (when, scheduling order).
func TestFireOrderMatchesSortProperty(t *testing.T) {
	type ev struct {
		when time.Duration
		id   int
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var horizon time.Duration
		if rng.Intn(2) == 0 {
			horizon = time.Duration(20+rng.Intn(40)) * time.Millisecond
		}
		k := NewKernel(WithHorizon(horizon))
		instant := func() time.Duration { return time.Duration(rng.Intn(60)) * time.Millisecond }

		var scheduled, fired []ev
		cancelled := make(map[int]bool)
		pending := make(map[int]*Event) // handles safe to cancel: not yet fired or collected
		var schedule func(at time.Duration)
		var cancelOne func()
		schedule = func(at time.Duration) {
			id := len(scheduled)
			scheduled = append(scheduled, ev{at, id})
			e, err := k.At(at, "p", func(kk *Kernel) {
				delete(pending, id)
				if kk.Now() != at {
					t.Fatalf("seed %d: event %d due %v fired at %v", seed, id, at, kk.Now())
				}
				fired = append(fired, ev{at, id})
				switch rng.Intn(4) {
				case 0:
					schedule(kk.Now()) // same instant: fires after every earlier-scheduled tie
				case 1:
					schedule(kk.Now() + instant()/4)
				case 2:
					cancelOne()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			pending[id] = e
		}
		cancelOne = func() {
			if len(pending) == 0 {
				return
			}
			ids := make([]int, 0, len(pending))
			for id := range pending {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			id := ids[rng.Intn(len(ids))]
			if !k.Cancel(pending[id]) {
				t.Fatalf("seed %d: Cancel of pending event %d failed", seed, id)
			}
			cancelled[id] = true
			delete(pending, id)
		}

		for i := 0; i < 40; i++ {
			schedule(instant())
		}
		limit := 60 * time.Millisecond
		if horizon > 0 {
			limit = horizon // RunUntil ignores the horizon; Run enforces it
		}
		for step := time.Duration(0); step < limit; step += time.Duration(1+rng.Intn(10)) * time.Millisecond {
			k.RunUntil(step)
			if rng.Intn(2) == 0 {
				cancelOne()
			}
			if rng.Intn(2) == 0 {
				schedule(k.Now() + instant()/2)
			}
		}
		k.Run()

		var want []ev
		for _, e := range scheduled {
			if !cancelled[e.id] && (horizon == 0 || e.when <= horizon) {
				want = append(want, e)
			}
		}
		slices.SortFunc(want, func(a, b ev) int {
			return cmp.Or(cmp.Compare(a.when, b.when), cmp.Compare(a.id, b.id))
		})
		if !slices.Equal(fired, want) {
			t.Fatalf("seed %d: fired %v\nwant  %v", seed, fired, want)
		}
		if k.EventsFired() != uint64(len(fired)) {
			t.Fatalf("seed %d: EventsFired %d, fired %d", seed, k.EventsFired(), len(fired))
		}
	}
}

// TestSteadyStateSchedulingDeepQueueDoesNotAllocate pins the kernel's
// allocation contract with a deep backlog, so every After and every fire
// sifts through several heap levels.
func TestSteadyStateSchedulingDeepQueueDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	fn := func(*Kernel) {}
	for i := 0; i < 1024; i++ {
		k.After(time.Hour+time.Duration(i), "backlog", fn)
	}
	if avg := testing.AllocsPerRun(200, func() {
		k.After(time.Millisecond, "hot", fn)
		k.RunUntil(k.Now() + time.Millisecond)
	}); avg != 0 {
		t.Errorf("steady-state After+fire over a deep queue allocates %.2f/op, want 0", avg)
	}
	if k.Pending() != 1024 {
		t.Fatalf("backlog %d, want 1024", k.Pending())
	}
}
