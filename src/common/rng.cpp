#include "common/rng.hpp"

#include <cmath>
#include <random>

#include "common/error.hpp"

namespace privid {

namespace {

constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLower = ~kUpper;

// One word of the MT19937-64 twist: the upper 33 bits of word k (`hi`) and
// the lower 31 bits of word k+1 (`lo`), times the matrix A, xor word
// k+156 mod 312 (`far`). Branch-free: the low bit is random, so a branch
// on it would mispredict half the time.
inline std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                           std::uint64_t far) {
  const std::uint64_t y = (hi & kUpper) | (lo & kLower);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ull);
}

}  // namespace

void LazyMt64::refill() {
  if (ready_ == kN) {
    // Ordinary reload: the first half reads untwisted words ahead of it.
    for (std::size_t k = 0; k < kM; ++k)
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    pos_ = 0;
  } else if (pos_ < kM) {
    // Lazy step: seed up to word pos_ + kM, twist word pos_ alone.
    for (std::size_t i = pos_ == 0 ? 1 : pos_ + kM; i <= pos_ + kM; ++i)
      x_[i] = 6364136223846793005ull * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    x_[pos_] = twist(x_[pos_], x_[pos_ + 1], x_[pos_ + kM]);
    ready_ = pos_ + 1;
    return;
  }
  // Second half (pos_ == kM at the end of the lazy phase, or a reload):
  // every word reads the already-twisted word kM behind it.
  for (std::size_t k = kM; k < kN - 1; ++k)
    x_[k] = twist(x_[k], x_[k + 1], x_[k - kM]);
  x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
  ready_ = kN;
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
}

double Rng::uniform(double lo, double hi) {
  if (hi < lo) throw ArgumentError("uniform: hi < lo");
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw ArgumentError("uniform_int: hi < lo");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(gen_);
}

double Rng::exponential(double rate) {
  if (rate <= 0) throw ArgumentError("exponential: rate must be positive");
  return std::exponential_distribution<double>(rate)(gen_);
}

double Rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(gen_);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(gen_);
}

std::int64_t Rng::poisson(double mean) {
  if (mean < 0) throw ArgumentError("poisson: mean must be non-negative");
  if (mean == 0) return 0;
  return std::poisson_distribution<std::int64_t>(mean)(gen_);
}

double Rng::laplace(double mu, double b) {
  if (b < 0) throw ArgumentError("laplace: scale must be non-negative");
  if (b == 0) return mu;
  // Inverse CDF: draw u in (-1/2, 1/2), return mu - b*sgn(u)*ln(1-2|u|).
  double u = uniform() - 0.5;
  double sgn = (u >= 0) ? 1.0 : -1.0;
  return mu - b * sgn * std::log(1.0 - 2.0 * std::abs(u));
}

Rng Rng::fork() {
  // Mix two draws so sibling forks are decorrelated.
  std::uint64_t a = gen_();
  std::uint64_t b = gen_();
  return Rng(a ^ (b * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull));
}

}  // namespace privid
