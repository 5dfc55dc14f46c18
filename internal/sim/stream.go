package sim

import "math/rand"

// The kernel's random streams draw exactly what rand.NewSource would
// draw for the same seed — every golden file depends on that — but a
// stream costs next to nothing until it is drawn from.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register: draw j writes vec[feed] += vec[tap], with both
// indices stepping down from feed = 334 and tap = 0. Seeding fills the
// register from a Park–Miller LCG, x' = 48271·x mod (2³¹−1): 20 steps
// are discarded, then each word takes three steps, and the result is
// XORed with a fixed table, rngCooked. Seeding therefore walks 1841
// dependent steps and writes 4.9 KB, which dominates a stream that is
// drawn from only a hundred times (a mobility trajectory).
//
// Three facts make a cheaper, exact source possible:
//
//   - x_k = x₀·48271^k mod (2³¹−1), so with the powers tabled once any
//     register word is three independent multiply-mods of the seed.
//   - Draw j ≤ rngTap reads only words no earlier draw wrote: it returns
//     V[334−j] + V[607−j], where V is the freshly seeded register. Until
//     then a stream keeps only its reduced seed and a draw count.
//   - rngCooked need not be copied: drawing 607 values from
//     rand.NewSource(1) writes every register slot exactly once, so the
//     recurrence can be run backwards to the seeded register and the
//     seed-1 LCG words XORed off.
const (
	rngLen     = 607
	rngTap     = 273
	rngFeed    = rngLen - rngTap // feed index of a freshly seeded register
	lcgMod     = 1<<31 - 1       // Park–Miller modulus, a Mersenne prime
	lcgMul     = 48271
	lcgSkip    = 20       // LCG steps discarded before the first word
	zeroSeedTo = 89482311 // math/rand's substitute for a zero seed
)

var (
	// lcgPow[i][j] = 48271^(lcgSkip+1+3i+j) mod lcgMod: the multiplier
	// taking the reduced seed to the (j+1)th LCG value of register word i.
	lcgPow [rngLen][3]uint64
	// rngCooked is math/rand's seeding mask, recovered at init.
	rngCooked [rngLen]uint64
)

// Both tables are written once here and only read afterwards, so kernels
// on parallel fleet workers share them without synchronisation.
func init() {
	p := uint64(1)
	for range lcgSkip {
		p = p * lcgMul % lcgMod
	}
	for i := range lcgPow {
		for j := range lcgPow[i] {
			p = p * lcgMul % lcgMod
			lcgPow[i][j] = p
		}
	}

	// Every draw stores its result in the slot it writes, and 607 draws
	// from a fresh source write each slot once, leaving both indices
	// where seeding put them. Undoing the draws newest first recovers the
	// seeded register.
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]uint64
	tap, feed := 0, rngFeed
	for range rngLen {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		vec[feed] = src.Uint64()
	}
	for range rngLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

// mulMod returns x·p mod lcgMod for x, p in [1, lcgMod). Two Mersenne
// folds suffice: the product is below 2⁶², the first fold leaves at most
// 2·lcgMod, and since lcgMod is prime and neither factor a multiple of
// it, the second fold lands in [1, lcgMod) exactly.
func mulMod(x, p uint64) uint64 {
	v := x * p
	v = v&lcgMod + v>>31
	return v&lcgMod + v>>31
}

// lcgWord returns the three LCG values behind register word i, packed as
// math/rand packs them, for the reduced seed x0.
func lcgWord(x0 uint64, i int) uint64 {
	p := &lcgPow[i]
	return mulMod(x0, p[0])<<40 ^ mulMod(x0, p[1])<<20 ^ mulMod(x0, p[2])
}

// stream is a rand.Source64 whose draws, and whose Seed, match those of
// rand.NewSource draw for draw. Until its (rngTap+1)th draw it holds no
// register.
type stream struct {
	x0   uint64          // seed reduced into [1, lcgMod)
	n    int             // draws served while vec is nil
	vec  *[rngLen]uint64 // the register, built at draw rngTap+1
	tap  int
	feed int
}

func newStream(seed int64) *stream {
	s := new(stream)
	s.Seed(seed)
	return s
}

// Seed resets the stream to the sequence rand.NewSource(seed) yields.
func (s *stream) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeedTo
	}
	*s = stream{x0: uint64(seed)}
}

// word returns word i of the freshly seeded register.
func (s *stream) word(i int) uint64 { return lcgWord(s.x0, i) ^ rngCooked[i] }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 returns the next pseudo-random 64-bit value.
func (s *stream) Uint64() uint64 {
	if s.vec == nil {
		if s.n < rngTap {
			s.n++
			return s.word(rngFeed-s.n) + s.word(rngLen-s.n)
		}
		s.materialise()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// materialise builds the register as it stands after the first rngTap
// draws: the seeded words, with each slot those draws fed added to.
func (s *stream) materialise() {
	v := new([rngLen]uint64)
	for i := range v {
		v[i] = s.word(i)
	}
	for i := rngFeed - rngTap; i < rngFeed; i++ {
		v[i] += v[i+rngTap]
	}
	s.vec, s.tap, s.feed = v, rngFeed, rngFeed-rngTap
}
