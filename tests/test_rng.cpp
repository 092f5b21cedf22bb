// Equivalence suite for the lazily twisting MT19937-64 behind privid::Rng.
//
// LazyMt64 must emit exactly std::mt19937_64(seed)'s sequence: every
// golden in the tree (cv_*, columnar, slab) was captured over the standard
// engine, and released noise must not move by one bit. The lazy phase
// covers draws 0..155; draw 156 finishes the first block and draw 312 is
// the first ordinary reload, so the counts below straddle both.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace privid {
namespace {

static_assert(std::uniform_random_bit_generator<LazyMt64>);
static_assert(LazyMt64::min() == std::mt19937_64::min());
static_assert(LazyMt64::max() == std::mt19937_64::max());

// Index of the first of `draws` outputs where the engines disagree, or -1.
long first_mismatch(LazyMt64& lazy, std::mt19937_64& ref, int draws) {
  for (int i = 0; i < draws; ++i) {
    if (lazy() != ref()) return i;
  }
  return -1;
}

TEST(LazyMt64, MatchesStdEngineOverManySeeds) {
  const int kCounts[] = {1,   2,   6,   40,  155, 156, 157,  311,
                         312, 313, 624, 625, 937, 1000, 1500};
  std::vector<std::uint64_t> seeds{0, 1, UINT64_MAX};
  for (std::uint64_t i = 0; i < 20000; ++i) {
    seeds.push_back(seed_mix(0x5EED, i));
  }

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    // The edge seeds run long; the rest cycle through the boundary counts.
    const int draws = i < 3 ? 2000 : kCounts[i % std::size(kCounts)];
    LazyMt64 lazy(seeds[i]);
    std::mt19937_64 ref(seeds[i]);
    ASSERT_EQ(first_mismatch(lazy, ref, draws), -1)
        << "seed " << seeds[i] << " over " << draws << " draws";
  }
}

TEST(LazyMt64, CopyTakenMidLazyPhaseContinuesIdentically) {
  for (int before : {0, 1, 77, 154, 155, 156, 157, 311, 312, 400}) {
    SCOPED_TRACE("copied after " + std::to_string(before) + " draws");
    const std::uint64_t seed = seed_mix(before, 3);
    LazyMt64 original(seed);
    std::mt19937_64 ref(seed);
    ref.discard(before);
    for (int i = 0; i < before; ++i) original();

    LazyMt64 copy = original;
    std::mt19937_64 ref_copy = ref;
    EXPECT_EQ(first_mismatch(copy, ref_copy, 1000), -1);
    EXPECT_EQ(first_mismatch(original, ref, 1000), -1);
  }
}

// Rng's methods written out over std::mt19937_64 with the same libstdc++
// distributions, argument checks aside.
class ReferenceRng {
 public:
  explicit ReferenceRng(std::uint64_t seed) : gen_(seed) {}

  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
  }
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(gen_);
  }
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(gen_);
  }
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(gen_);
  }
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(gen_);
  }
  std::int64_t poisson(double mean) {
    if (mean == 0) return 0;
    return std::poisson_distribution<std::int64_t>(mean)(gen_);
  }
  double laplace(double mu, double b) {
    if (b == 0) return mu;
    double u = uniform() - 0.5;
    double sgn = (u >= 0) ? 1.0 : -1.0;
    return mu - b * sgn * std::log(1.0 - 2.0 * std::abs(u));
  }
  ReferenceRng fork() {
    std::uint64_t a = gen_();
    std::uint64_t b = gen_();
    return ReferenceRng(a ^
                        (b * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull));
  }

 private:
  std::mt19937_64 gen_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Makes `ops` calls on `g`, the method picked per step by an independent
// stream so the lazy/full boundaries fall inside every kind of distribution
// (normal and poisson consume a variable number of words), and appends the
// bits of every result to `out`. Forked children run a shorter tape of
// their own.
template <class Gen>
void record(Gen& g, std::uint64_t pick_seed, int ops, int depth,
            std::vector<std::uint64_t>& out) {
  std::mt19937_64 pick(pick_seed);
  for (int i = 0; i < ops; ++i) {
    switch (pick() % 11) {
      case 0: out.push_back(bits(g.uniform())); break;
      case 1: out.push_back(bits(g.uniform(-3.5, 9.25))); break;
      case 2: out.push_back(g.uniform_int(-7, 1000003)); break;
      case 3: out.push_back(bits(g.normal(2.0, 0.5))); break;
      case 4: out.push_back(bits(g.exponential(1.5))); break;
      case 5: out.push_back(bits(g.lognormal(0.3, 0.8))); break;
      case 6:
        out.push_back(g.bernoulli(0.37));
        out.push_back(g.bernoulli(0.0) + 2 * g.bernoulli(1.0));
        break;
      case 7: out.push_back(g.poisson(3.2)); break;
      // Large means take libstdc++'s rejection path, which draws more.
      case 8:
        out.push_back(g.poisson(250.0));
        out.push_back(g.poisson(0.0));
        break;
      case 9:
        out.push_back(bits(g.laplace(1.0, 4.0)));
        out.push_back(bits(g.laplace(1.0, 0.0)));
        break;
      case 10:
        if (depth > 0) {
          auto child = g.fork();
          record(child, pick(), 40, depth - 1, out);
        } else {
          out.push_back(bits(g.uniform()));
        }
        break;
    }
  }
}

// Index of the first entry where the tapes differ (or the shorter length).
std::size_t first_difference(const std::vector<std::uint64_t>& a,
                             const std::vector<std::uint64_t>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

TEST(RngEquivalence, EveryMethodMatchesStdDistributionsBitForBit) {
  std::vector<std::uint64_t> got, want;
  for (std::uint64_t i = 0; i < 1500; ++i) {
    const std::uint64_t seed = seed_mix(0xD157, i);
    // 1..400 calls: some seeds stop inside the lazy phase, others run past
    // the first ordinary reload.
    const int ops = 1 + static_cast<int>(i % 400);
    got.clear();
    want.clear();
    Rng rng(seed);
    ReferenceRng ref(seed);
    record(rng, seed_mix(seed, 1), ops, 1, got);
    record(ref, seed_mix(seed, 1), ops, 1, want);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    ASSERT_EQ(first_difference(got, want), want.size()) << "seed " << seed;
  }
}

TEST(RngEquivalence, DefaultSeedMatches) {
  std::vector<std::uint64_t> got, want;
  Rng rng;
  ReferenceRng ref(0x9E3779B97F4A7C15ull);
  record(rng, 11, 500, 1, got);
  record(ref, 11, 500, 1, want);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace privid
