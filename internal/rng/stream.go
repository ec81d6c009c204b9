package rng

// jumpPoly is the xoshiro256** jump polynomial: applying it advances the
// generator by 2^128 steps, yielding 2^128 non-overlapping subsequences.
var jumpPoly = [4]uint64{
	0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
	0xa9582618e03fc9aa, 0x39abdc4529b1661c,
}

// Jump advances the generator by 2^128 steps in O(256) time. Two generators
// separated by a Jump produce non-overlapping streams for any realistic
// simulation length.
func (r *RNG) Jump() {
	var s [4]uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				for i := range s {
					s[i] ^= r.s[i]
				}
			}
			r.Uint64()
		}
	}
	r.s = s
	r.hasSpare = false
}

// Split returns a new generator whose stream is guaranteed disjoint from the
// receiver's future output: the child takes the receiver's current sequence
// and the receiver jumps 2^128 steps past it.
func (r *RNG) Split() *RNG {
	child := &RNG{s: r.s}
	r.Jump()
	return child
}

// ForStream returns a generator for sub-stream `stream` of the given seed.
// The state is derived by hashing (seed, stream) through SplitMix64, so any
// two distinct (seed, stream) pairs yield statistically independent
// sequences. Unlike Split/Jump this is O(1) for any stream index, which
// lets a Monte Carlo runner assign stream i to iteration i and stay
// deterministic regardless of worker count.
func ForStream(seed, stream uint64) *RNG {
	var r RNG
	r.SeedStream(seed, stream)
	return &r
}

// SeedStream re-initializes r in place to the exact state ForStream(seed,
// stream) would return, without allocating. Monte Carlo workers use it to
// reuse one generator across millions of iterations.
func (r *RNG) SeedStream(seed, stream uint64) {
	// Two mixing rounds decorrelate adjacent stream indices.
	s1, h1 := splitMix64(seed ^ 0x6a09e667f3bcc909)
	_, h2 := splitMix64(s1 + stream*0x9e3779b97f4a7c15)
	r.Reseed(h1 ^ h2)
}
