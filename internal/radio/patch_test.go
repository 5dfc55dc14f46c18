package radio

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/manetlab/rpcc/internal/geo"
)

// edgeKey packs an undirected pair (u < v).
func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// geoRows computes sorted geometric neighbour rows (ignoring down state),
// the representation the kinetic plane hands to RebuildFromRows.
func geoRows(pos []geo.Point, commRange float64) [][]int32 {
	n := len(pos)
	r2 := commRange * commRange
	rows := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && pos[i].DistSq(pos[j]) <= r2 {
				rows[i] = append(rows[i], int32(j))
			}
		}
	}
	return rows
}

// csrEdges collects the up-up filtered edge set from rows+down.
func csrEdges(rows [][]int32, down []bool) map[uint64]bool {
	set := make(map[uint64]bool)
	for i, row := range rows {
		if down[i] {
			continue
		}
		for _, j := range row {
			if !down[j] {
				set[edgeKey(int32(i), j)] = true
			}
		}
	}
	return set
}

// edgeDiffs lists the CSR edge changes from prev to next in a fixed
// order (additions, then removals, each by edge key).
func edgeDiffs(prev, next map[uint64]bool) []EdgeDiff {
	var diffs []EdgeDiff
	for _, side := range []struct {
		from, to map[uint64]bool
		add      bool
	}{{prev, next, true}, {next, prev, false}} {
		var keys []uint64
		for k := range side.to {
			if !side.from[k] {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			diffs = append(diffs, EdgeDiff{U: int32(k >> 32), V: int32(uint32(k)), Add: side.add})
		}
	}
	return diffs
}

// TestPatchRoutesMatchesFreshBFS drives a random mobile + churn history
// through RebuildFromRows + PatchRoutes and checks, at every step, that
// every repaired distance table answers Hops and NextHop exactly like a
// freshly built reference snapshot.
func TestPatchRoutesMatchesFreshBFS(t *testing.T) {
	const (
		n         = 60
		steps     = 40
		commRange = 180.0
		world     = 1000.0
	)
	rng := rand.New(rand.NewSource(7))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: rng.Float64() * world, Y: rng.Float64() * world}
	}
	down := make([]bool, n)

	inc := NewGraphBuilder()
	ref := NewGraphBuilder()

	rows := geoRows(pos, commRange)
	prev := csrEdges(rows, down)
	g, err := inc.RebuildFromRows(n, func(i int) []int32 { return rows[i] }, down, commRange, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.SetRouteTableCap(12) // exercise FIFO eviction alongside repair

	warm := func(g *Graph) {
		for k := 0; k < 6; k++ {
			g.Hops(rng.Intn(n), rng.Intn(n))
		}
	}
	warm(g)

	for step := 1; step <= steps; step++ {
		// Drift positions, flip a little churn.
		for i := range pos {
			pos[i].X += (rng.Float64() - 0.5) * 60
			pos[i].Y += (rng.Float64() - 0.5) * 60
		}
		if step%3 == 0 {
			down[rng.Intn(n)] = !down[rng.Intn(n)]
		}
		rows = geoRows(pos, commRange)
		next := csrEdges(rows, down)

		diffs := edgeDiffs(prev, next)
		prev = next

		g, err = inc.RebuildFromRows(n, func(i int) []int32 { return rows[i] }, down, commRange, uint64(step))
		if err != nil {
			t.Fatal(err)
		}
		g.PatchRoutes(diffs)
		warm(g)

		refG, err := ref.BuildPairwise(pos, down, commRange, uint64(step))
		if err != nil {
			t.Fatal(err)
		}

		// CSR must match the reference build exactly.
		for i := 0; i < n; i++ {
			if !slices.Equal(g.Neighbors(i), refG.Neighbors(i)) {
				t.Fatalf("step %d: node %d neighbours %v != ref %v", step, i, g.Neighbors(i), refG.Neighbors(i))
			}
		}
		// Every query the cache can answer must match a fresh BFS.
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if got, want := g.Hops(src, dst), refG.Hops(src, dst); got != want {
					t.Fatalf("step %d: Hops(%d,%d) = %d, fresh = %d", step, src, dst, got, want)
				}
				if got, want := g.NextHop(src, dst), refG.NextHop(src, dst); got != want {
					t.Fatalf("step %d: NextHop(%d,%d) = %d, fresh = %d", step, src, dst, got, want)
				}
			}
		}
	}
}

// TestSmallBuildUsesIdenticalSnapshot pins that the small-n pairwise
// fast path and the grid path emit byte-identical CSR rows right around
// the cutoff.
func TestSmallBuildCutoffIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{smallBuildCutoff - 1, smallBuildCutoff, smallBuildCutoff + 1, smallBuildCutoff + 40} {
		pos := make([]geo.Point, n)
		for i := range pos {
			pos[i] = geo.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
		}
		a, err := NewGraphBuilder().Build(pos, nil, 250, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewGraphBuilder().BuildPairwise(pos, nil, 250, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(a.Neighbors(i), b.Neighbors(i)) {
				t.Fatalf("n=%d node %d: grid/pairwise rows differ", n, i)
			}
		}
	}
}

// lazyHistory is a random mobile + churn history fed to one builder: it
// moves the nodes, flips down states, repacks the CSR and logs the exact
// edge changes, exactly as the kinetic plane does at each sample.
type lazyHistory struct {
	t         *testing.T
	rng       *rand.Rand
	inc       *GraphBuilder
	g         *Graph
	pos       []geo.Point
	down      []bool
	rows      [][]int32
	prev      map[uint64]bool
	stamp     uint64
	commRange float64
	world     float64
}

// reset places n nodes afresh and repacks; a node-count change drops
// every table and the log.
func (h *lazyHistory) reset(n int) {
	h.pos = make([]geo.Point, n)
	for i := range h.pos {
		h.pos[i] = geo.Point{X: h.rng.Float64() * h.world, Y: h.rng.Float64() * h.world}
	}
	h.down = make([]bool, n)
	h.prev = nil
	h.sample(0)
}

// sample drifts every node by up to ±jitter/2 metres per axis, flips
// flips random down states, repacks and logs the resulting edge changes.
func (h *lazyHistory) sample(jitter float64, flips ...int) {
	for i := range h.pos {
		h.pos[i].X += (h.rng.Float64() - 0.5) * jitter
		h.pos[i].Y += (h.rng.Float64() - 0.5) * jitter
	}
	for _, i := range flips {
		h.down[i] = !h.down[i]
	}
	h.rows = geoRows(h.pos, h.commRange)
	next := csrEdges(h.rows, h.down)
	h.stamp++
	g, err := h.inc.RebuildFromRows(len(h.pos), func(i int) []int32 { return h.rows[i] }, h.down, h.commRange, h.stamp)
	if err != nil {
		h.t.Fatal(err)
	}
	h.g = g
	if h.prev != nil {
		g.PatchRoutes(edgeDiffs(h.prev, next))
	}
	h.prev = next
	if len(g.routeLog) > g.repairLimit() {
		h.t.Fatalf("sample %d: log holds %d diffs, bound %d", h.stamp, len(g.routeLog), g.repairLimit())
	}
}

// check compares every query touching the given destinations against a
// fresh pairwise build of the same snapshot.
func (h *lazyHistory) check(dsts []int) {
	ref, err := NewGraphBuilder().BuildPairwise(h.pos, h.down, h.commRange, h.stamp)
	if err != nil {
		h.t.Fatal(err)
	}
	n := len(h.pos)
	for _, dst := range dsts {
		for src := 0; src < n; src++ {
			if got, want := h.g.Hops(src, dst), ref.Hops(src, dst); got != want {
				h.t.Fatalf("sample %d: Hops(%d,%d) = %d, fresh = %d", h.stamp, src, dst, got, want)
			}
			if got, want := h.g.NextHop(src, dst), ref.NextHop(src, dst); got != want {
				h.t.Fatalf("sample %d: NextHop(%d,%d) = %d, fresh = %d", h.stamp, src, dst, got, want)
			}
		}
	}
}

// TestLazyRepairMatchesFreshBFS is the exactness property of repair on
// read: across random mobile histories where tables sit unread for
// several samples, down states flip, bursts of motion push tables past
// the pending bound, a small table cap forces FIFO eviction and the node
// count changes midway, every Hops and NextHop answer equals a fresh BFS.
func TestLazyRepairMatchesFreshBFS(t *testing.T) {
	var repaired, dropped uint64
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &lazyHistory{t: t, rng: rng, inc: NewGraphBuilder(), commRange: 180, world: 1000}
		h.reset(60)
		tableCap := 0
		if seed%2 == 0 {
			tableCap = 10
		}
		for step := 1; step <= 80; step++ {
			if step == 40 {
				h.reset(45 + rng.Intn(30))
			}
			n := len(h.pos)
			jitter := 8.0
			if rng.Intn(8) == 0 {
				jitter = 200 // a burst: most tables fall past the pending bound
			}
			var flips []int
			if rng.Intn(3) == 0 {
				flips = append(flips, rng.Intn(n))
			}
			h.sample(jitter, flips...)
			h.g.SetRouteTableCap(tableCap)
			if tableCap > 0 && h.g.RouteTables() > tableCap {
				t.Fatalf("seed %d step %d: %d live tables, cap %d", seed, step, h.g.RouteTables(), tableCap)
			}
			// Read only now and then, and only a few destinations, so
			// tables go stale across several samples between reads.
			if rng.Intn(3) != 0 {
				continue
			}
			dsts := make([]int, 1+rng.Intn(6))
			for i := range dsts {
				dsts[i] = rng.Intn(n)
			}
			h.check(dsts)
		}
		r, d := h.g.RouteRepairs()
		repaired += r
		dropped += d
	}
	if repaired == 0 || dropped == 0 {
		t.Fatalf("repaired=%d dropped=%d: history never exercised both outcomes", repaired, dropped)
	}
}

// TestUnreadTableCostsNoRepair pins the point of repair on read: samples
// that nobody routes through between them cost nothing per table, the
// stale tables are dropped once the log outgrows the pending bound, and a
// table read after several samples is repaired exactly once.
func TestUnreadTableCostsNoRepair(t *testing.T) {
	h := &lazyHistory{t: t, rng: rand.New(rand.NewSource(3)), inc: NewGraphBuilder(), commRange: 180, world: 1000}
	h.reset(60)
	dsts := []int{2, 17, 33, 48}
	h.check(dsts)
	if got := h.g.RouteTables(); got != len(dsts) {
		t.Fatalf("%d tables after warm-up, want %d", got, len(dsts))
	}

	// Quiet samples: tables fall behind but stay live and untouched.
	for i := 0; i < 3; i++ {
		h.sample(10)
	}
	if len(h.g.routeLog) == 0 {
		t.Fatal("quiet samples logged no edge change; history too static")
	}
	if r, d := h.g.RouteRepairs(); r != 0 || d != 0 {
		t.Fatalf("unread samples cost repaired=%d dropped=%d, want none", r, d)
	}
	if got := h.g.RouteTables(); got != len(dsts) {
		t.Fatalf("%d tables after quiet samples, want %d", got, len(dsts))
	}

	// One read repairs its table once, against every logged sample.
	h.check(dsts[:1])
	if r, _ := h.g.RouteRepairs(); r != 1 {
		t.Fatalf("one table read: repaired=%d, want 1", r)
	}
	h.check(dsts[:1])
	if r, _ := h.g.RouteRepairs(); r != 1 {
		t.Fatalf("current table re-read: repaired=%d, want still 1", r)
	}

	// Past the pending bound every table is dropped without repair, and
	// the log empties.
	for i := 0; h.g.RouteTables() > 0; i++ {
		if i == 50 {
			t.Fatalf("%d tables still live after %d samples", h.g.RouteTables(), i)
		}
		h.sample(40)
	}
	r, d := h.g.RouteRepairs()
	if r != 1 || d != uint64(len(dsts)) {
		t.Fatalf("after the bound: repaired=%d dropped=%d, want 1 and %d", r, d, len(dsts))
	}
	if len(h.g.routeLog) != 0 {
		t.Fatalf("log holds %d diffs with no live table", len(h.g.routeLog))
	}
	h.check(dsts)
	if r2, _ := h.g.RouteRepairs(); r2 != r {
		t.Fatalf("rebuilt tables were repaired: %d -> %d", r, r2)
	}
}
