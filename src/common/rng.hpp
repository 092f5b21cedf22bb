// Deterministic random number generation.
//
// Every stochastic component in the library (simulator, detector, Laplace
// mechanism, ...) draws from an explicitly seeded Rng so that experiments
// are reproducible bit-for-bit across runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace privid {

// MT19937-64 that emits exactly std::mt19937_64(seed)'s output sequence but
// seeds and twists its state lazily. Callers build one generator per
// (entity, frame) and take a handful of draws, so most of the standard
// engine's up-front work (seed all 312 words, twist all 312 on the first
// draw) would be wasted on them. Output i < 156 of a freshly seeded engine depends only on
// seeded words i, i+1 and i+156 (Matsumoto & Nishimura, ACM TOMACS 1998):
//
//  - construction stores x[0] = seed and nothing else;
//  - draw k < 156 extends the seeding recurrence up to word k+156, twists
//    word k in place and tempers it;
//  - draw 156 runs the rest of the standard twist (words 156..311, which
//    read the already-twisted words 0..155); from then on the engine
//    reloads every 312 draws like the ordinary one.
//
// All state is the inline 312-word array plus two indices, so copies (also
// mid-lazy-phase) continue identically.
class LazyMt64 {
 public:
  using result_type = std::uint64_t;

  explicit LazyMt64(result_type seed) { x_[0] = seed; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (pos_ == ready_) refill();
    result_type z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  // Makes word pos_ ready: one lazy step, the end of the lazy phase, or a
  // full reload.
  void refill();

  result_type x_[kN];
  // Next word to emit, and the end of the current block's twisted words.
  // Outside the lazy phase ready_ == kN. Inside it ready_ == pos_ <= kM
  // between draws, and once a draw is made words [pos_, pos_ + kM) hold
  // seed values.
  std::size_t pos_ = 0;
  std::size_t ready_ = 0;
};

// Convenience draws over LazyMt64 through libstdc++'s distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : gen_(seed) {}

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard normal draw.
  double normal(double mean = 0.0, double stddev = 1.0);
  // Exponential draw with the given rate (mean 1/rate).
  double exponential(double rate);
  // Log-normal draw: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  // Bernoulli trial.
  bool bernoulli(double p);
  // Poisson draw with the given mean.
  std::int64_t poisson(double mean);
  // Laplace draw with location mu and scale b (inverse-CDF method).
  double laplace(double mu, double b);

  // Derive an independent child generator; used to give each simulated
  // entity / chunk its own stream so insertion order does not perturb draws.
  Rng fork();

 private:
  LazyMt64 gen_;
};

// Canonical seed mixer (splitmix64 finalizer): derives a child seed from a
// parent seed and a stream tag so per-chunk / per-entity / per-frame tapes
// are independent and stable across runs. Every module must use this one —
// a second inline mixer is a parallel hashing scheme (privcheck
// parallel-hash); content addressing beyond seeds keys off
// common/fingerprint.* instead.
inline std::uint64_t seed_mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull + b;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace privid
