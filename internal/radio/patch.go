package radio

import "fmt"

// This file is the incremental half of the radio layer: the kinetic
// topology plane (internal/netsim) maintains geometric adjacency rows
// between snapshots and asks the builder to repack the CSR from them
// without discarding the route cache, then hands over the exact set of
// CSR edge changes. Memoized distance tables are repaired against those
// changes on demand, the way DSR maintains a route only when it is used:
// PatchRoutes merely appends the sample's diffs to a per-graph log, and
// the first read of a stale table (routeTo) repairs it once against every
// diff logged since the table was last current. A table that is never
// read again costs nothing until it falls too far behind and is dropped.
//
// The repair is the textbook two-phase dynamic-BFS update for unit
// weights:
//
//   Phase 1 (increase): starting from the endpoints of removed edges,
//   a vertex keeps its distance only while it has a witness neighbour
//   one level closer to the destination; vertices without one are set
//   to Unreachable and their dependants re-checked, to a fixpoint.
//   Witness chains are grounded at the destination by induction on
//   level, so every distance that survives phase 1 is achievable in
//   the new graph.
//
//   Phase 2 (decrease): a multi-source level-ordered BFS relaxation
//   seeded by the endpoints of added edges and by the surviving
//   frontier around the invalidated region restores exact distances.
//
// Both phases stay exact for any superset of the true changes, which is
// what a log spanning several samples is: an edge that flipped more than
// once appears with both signs. Phase 1 re-checks both endpoints of every
// logged removal against the new adjacency, so a spurious re-check only
// confirms a witness, and phase 2 relaxes over the new adjacency only, so
// an over-seeded endpoint lowers nothing that is already exact.
//
// Final distances equal a fresh BFS on the new graph, so NextHop —
// which reads only distances plus the current adjacency — answers
// exactly as if the table had been rebuilt. The property tests in
// patch_test.go pin that equality on random mobile histories read at
// random intervals.

// EdgeDiff is one undirected CSR edge change between two snapshots.
type EdgeDiff struct {
	U, V int32
	Add  bool
}

// RebuildFromRows repacks the snapshot's CSR from per-node geometric
// neighbour rows (sorted ascending, including rows for down nodes),
// filtering out edges with a down endpoint exactly as the full builds
// do — and, unlike Build, it keeps the memoized route tables alive so
// the caller can log the edge changes with PatchRoutes. The first call (or a
// call with a different node count) behaves like a full build with an
// empty cache.
func (b *GraphBuilder) RebuildFromRows(n int, row func(i int) []int32, down []bool, commRange float64, stamp uint64) (*Graph, error) {
	if commRange <= 0 {
		return nil, fmt.Errorf("radio: non-positive range %g", commRange)
	}
	if down != nil && len(down) != n {
		return nil, fmt.Errorf("radio: down length %d != nodes %d", len(down), n)
	}
	g := &b.g
	if g.n != n {
		g.discardRoutes()
		g.n = n
		g.cacheOn = true
	}
	g.rng = commRange
	g.stamp = stamp
	g.off = resizeI32(g.off, n+1)
	if cap(g.down) < n {
		g.down = make([]bool, n)
	}
	g.down = g.down[:n]
	if down != nil {
		copy(g.down, down)
	} else {
		clear(g.down)
	}
	if cap(g.queue) < n {
		g.queue = make([]int32, 0, n)
	}
	tgt := g.tgt[:0]
	for i := 0; i < n; i++ {
		g.off[i] = int32(len(tgt))
		if g.down[i] {
			continue
		}
		for _, j := range row(i) {
			if !g.down[j] {
				tgt = append(tgt, int(j))
			}
		}
	}
	g.off[n] = int32(len(tgt))
	g.tgt = tgt
	return g, nil
}

// repairLimit caps how much of a table phase 1 may invalidate before the
// repair is abandoned and the table rebuilt by BFS: past a quarter of the
// graph a fresh BFS is cheaper than the two-phase update. It also bounds
// how many logged diffs a table may fall behind before it is dropped.
func (g *Graph) repairLimit() int { return g.n/4 + 8 }

// PatchRoutes logs the CSR edge changes applied by the latest
// RebuildFromRows; each memoized table is repaired against them when it
// is next read. Tables more than repairLimit diffs behind are dropped
// (rebuilt by BFS if read again), and the log is trimmed to what the
// stalest surviving table still needs, which keeps it O(n).
func (g *Graph) PatchRoutes(diffs []EdgeDiff) {
	if len(g.built) == 0 {
		g.routeLog = g.routeLog[:0]
		return
	}
	if len(diffs) == 0 {
		return
	}
	g.routeLog = append(g.routeLog, diffs...)
	end := int32(len(g.routeLog))
	limit := int32(g.repairLimit())
	oldest := end
	kept := g.built[:0]
	for _, dst := range g.built {
		at := g.logAt[dst]
		if end-at > limit {
			g.distPool = append(g.distPool, g.dist[dst])
			g.dist[dst] = nil
			g.dropped++
			continue
		}
		kept = append(kept, dst)
		oldest = min(oldest, at)
	}
	g.built = kept
	if oldest > 0 {
		g.routeLog = g.routeLog[:copy(g.routeLog, g.routeLog[oldest:])]
		for _, dst := range g.built {
			g.logAt[dst] -= oldest
		}
	}
}

// repairOnRead brings dst's table d up to date with every diff logged
// since it was last current: two-phase repair, or a BFS rebuild into the
// same slice when the affected region exceeds the repair limit.
func (g *Graph) repairOnRead(d []int32, dst int) {
	if g.repairTable(d, g.routeLog[g.logAt[dst]:]) {
		g.repaired++
	} else {
		g.bfsInto(d, dst)
		g.dropped++
	}
	g.logAt[dst] = int32(len(g.routeLog))
}

// repairTable applies the two-phase update to one distance table.
// Returns false when the affected region exceeded the repair limit (the
// table's contents are then unspecified and it must be rebuilt).
func (g *Graph) repairTable(d []int32, diffs []EdgeDiff) bool {
	limit := g.repairLimit()
	invalidated := 0

	// Phase 1: over-invalidate. Work stack seeded by removed-edge
	// endpoints; a vertex is re-pushed whenever a potential witness of
	// its level is invalidated, so the loop reaches a fixpoint.
	stack := g.queue[:0]
	for _, diff := range diffs {
		if !diff.Add {
			stack = append(stack, diff.U, diff.V)
		}
	}
	var invalid []int32
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dx := d[x]
		if dx <= 0 {
			continue // destination (0) or already invalidated (-1)
		}
		witness := false
		for _, w := range g.tgt[g.off[x]:g.off[x+1]] {
			if d[w] == dx-1 {
				witness = true
				break
			}
		}
		if witness {
			continue
		}
		d[x] = Unreachable
		invalid = append(invalid, x)
		if invalidated++; invalidated > limit {
			g.queue = stack[:0]
			return false
		}
		for _, y := range g.tgt[g.off[x]:g.off[x+1]] {
			if d[int32(y)] == dx+1 {
				stack = append(stack, int32(y))
			}
		}
	}
	g.queue = stack[:0]

	// Phase 2: level-ordered relaxation from added-edge endpoints and
	// from the surviving frontier around the invalidated region.
	if cap(g.repairBuckets) == 0 {
		g.repairBuckets = make([][]int32, 0, 16)
	}
	buckets := g.repairBuckets[:0]
	push := func(x int32, level int32) {
		for int(level) >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[level] = append(buckets[level], x)
	}
	for _, diff := range diffs {
		if diff.Add {
			if dv := d[diff.U]; dv >= 0 {
				push(diff.U, dv)
			}
			if dv := d[diff.V]; dv >= 0 {
				push(diff.V, dv)
			}
		}
	}
	for _, x := range invalid {
		for _, w := range g.tgt[g.off[x]:g.off[x+1]] {
			if dv := d[w]; dv >= 0 {
				push(int32(w), dv)
			}
		}
	}
	for level := 0; level < len(buckets); level++ {
		for qi := 0; qi < len(buckets[level]); qi++ {
			x := buckets[level][qi]
			if d[x] != int32(level) {
				continue // stale entry: x was relaxed to a lower level
			}
			for _, y := range g.tgt[g.off[x]:g.off[x+1]] {
				if dy := d[y]; dy < 0 || dy > int32(level)+1 {
					d[y] = int32(level) + 1
					push(int32(y), int32(level)+1)
				}
			}
		}
		buckets[level] = buckets[level][:0]
	}
	g.repairBuckets = buckets[:0]
	return true
}

// SetRouteTableCap bounds how many destination tables the route cache
// keeps alive at once (0, the default, is unlimited — the behaviour every
// pre-existing path sees). When the cap is reached the oldest table is
// evicted FIFO, which keeps eviction deterministic. Large kinetic runs
// set a cap so persistent tables cannot grow to n² memory.
func (g *Graph) SetRouteTableCap(cap int) { g.tableCap = cap }

// RouteTables returns how many memoized distance tables are currently
// live, current or awaiting repair on their next read.
func (g *Graph) RouteTables() int { return len(g.built) }

// RouteRepairs returns how many stale tables were repaired in place on
// read, and how many were dropped or rebuilt instead because they fell
// too far behind the log or the repair touched too much of the graph,
// over the graph's lifetime.
func (g *Graph) RouteRepairs() (repaired, dropped uint64) { return g.repaired, g.dropped }
