package rng

// ForStream returns a generator for sub-stream `stream` of the given seed.
// The state is derived by hashing (seed, stream) through SplitMix64, so any
// two distinct (seed, stream) pairs yield statistically independent
// sequences. Seeding is O(1) for any stream index, which lets a Monte
// Carlo runner assign stream i to iteration i and stay deterministic
// regardless of worker count.
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
