package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// streamSeeds returns the edge seeds of math/rand's seed reduction plus
// n random ones.
func streamSeeds(n int) []int64 {
	const m = lcgMod
	seeds := []int64{
		0, 1, -1, m, -m, m - 1, -(m - 1), m + 1, 2 * m, -2 * m,
		zeroSeedTo, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	rng := rand.New(rand.NewSource(20260418))
	for range n {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// TestStreamMatchesMathRand checks the stream against math/rand draw for
// draw: raw values far past the register build (draw 274) and the 607-word
// wrap, the derived rand.Rand methods, and a mid-stream re-seed on either
// side of the build.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range streamSeeds(1000) {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newStream(seed))
		for i := range 2000 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, i+1, g, w)
			}
		}

		want, got = rand.New(rand.NewSource(seed)), rand.New(newStream(seed))
		for i := range 300 {
			step := fmt.Sprintf("seed %d step %d", seed, i)
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("%s: Int63 = %d, want %d", step, g, w)
			}
			if w, g := want.Intn(1000+i), got.Intn(1000+i); w != g {
				t.Fatalf("%s: Intn = %d, want %d", step, g, w)
			}
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("%s: Float64 = %v, want %v", step, g, w)
			}
			if w, g := want.ExpFloat64(), got.ExpFloat64(); w != g {
				t.Fatalf("%s: ExpFloat64 = %v, want %v", step, g, w)
			}
			if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
				t.Fatalf("%s: NormFloat64 = %v, want %v", step, g, w)
			}
		}
		if w, g := fmt.Sprint(want.Perm(50)), fmt.Sprint(got.Perm(50)); w != g {
			t.Fatalf("seed %d: Perm = %s, want %s", seed, g, w)
		}

		for _, after := range []int{10, 700} {
			want, got = rand.New(rand.NewSource(seed)), rand.New(newStream(seed))
			for range after {
				want.Uint64()
				got.Uint64()
			}
			want.Seed(seed ^ 0x5eed)
			got.Seed(seed ^ 0x5eed)
			for i := range 700 {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d re-seeded after %d draws: draw %d = %#x, want %#x",
						seed, after, i+1, g, w)
				}
			}
		}
	}
}

// TestKernelStreamMatchesMathRand pins what the golden files rely on: a
// kernel stream draws what rand.NewSource of its derived seed draws.
func TestKernelStreamMatchesMathRand(t *testing.T) {
	k := NewKernel(WithSeed(1))
	for _, name := range []string{"mobility.0", "mobility.49", "workload", "netsim.loss"} {
		want := rand.New(rand.NewSource(deriveSeed(1, name)))
		got := k.Stream(name)
		for i := range 1000 {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("%s draw %d: %d, want %d", name, i+1, g, w)
			}
		}
	}
}

func TestMulModIsExact(t *testing.T) {
	xs := []uint64{1, 2, 48271, 1 << 30, lcgMod - 2, lcgMod - 1}
	rng := rand.New(rand.NewSource(3))
	for range 2000 {
		xs = append(xs, 1+uint64(rng.Int63n(lcgMod-1)))
	}
	for _, x := range xs {
		for _, p := range xs {
			if got, want := mulMod(x, p), x*p%lcgMod; got != want {
				t.Fatalf("mulMod(%d, %d) = %d, want %d", x, p, got, want)
			}
		}
	}
}

// TestUndrawnStreamIsSmall pins the laziness: a stream nobody draws from
// costs its kernel well under one register (4.9 KB), map entry included.
func TestUndrawnStreamIsSmall(t *testing.T) {
	const n = 4096
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("mobility.%d", i)
	}
	k := NewKernel(WithSeed(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, name := range names {
		k.Stream(name)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 256 {
		t.Fatalf("an undrawn stream allocates %d bytes, want < 256", per)
	}

	// The register appears at draw rngTap+1 and not before.
	s := newStream(9)
	for range rngTap {
		s.Uint64()
	}
	if s.vec != nil {
		t.Fatalf("register built within the first %d draws", rngTap)
	}
	s.Uint64()
	if s.vec == nil {
		t.Fatalf("register not built at draw %d", rngTap+1)
	}
}

func BenchmarkStreamCreate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = rand.New(newStream(int64(i))).Int63()
	}
}

func BenchmarkStreamMaterialise(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newStream(int64(i))
		s.n = rngTap
		s.materialise()
	}
}

var benchSink int64
