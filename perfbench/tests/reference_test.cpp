// Tests of the benchmark's own reference implementations and checks, on
// traces and models small enough to work out by hand. Run through
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
#include <cmath>
#include <iostream>
#include <numbers>
#include <vector>

#include "cache/policies/classic.hpp"
#include "reference.hpp"
#include "sim/engine.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::cerr << __FILE__ << ':' << __LINE__ << ": expected " #cond \
                << '\n';                                              \
    }                                                                 \
  } while (0)

constexpr std::uint64_t A = 10, B = 11, C = 12, D = 13;

// 1 set x 2 ways. Worked by hand:
//   A r  miss, fill way 0 (clean)
//   B w  miss, fill way 1 (dirty)
//   A r  hit                        LRU order now B, A
//   C r  miss, evict B (dirty)      fill C
//   B r  miss, evict A (clean)      fill B (clean)
//   A w  miss, evict C (clean)      fill A (dirty)
//   A r  hit
//   B w  hit, B now dirty
//   D r  miss, evict A (dirty)      fill D
const std::vector<RefAccess> kLruTrace = {
    {A, false}, {B, true},  {A, false}, {C, false}, {B, false},
    {A, true},  {A, false}, {B, true},  {D, false}};

void test_lru_one_set_two_ways() {
  const RefCounts all = ref_lru(kLruTrace, 1, 2);
  EXPECT(all.accesses == 9);
  EXPECT(all.hits == 3);
  EXPECT(all.fills == 6);
  EXPECT(all.evictions == 4);
  EXPECT(all.dirty_evictions == 2);

  // Warm-up discard of the first three accesses: state is kept, counts are
  // not. Counted: C B A A B D -> hits 2, fills 4, all four evictions.
  const RefCounts tail = ref_lru(kLruTrace, 1, 2, 3);
  EXPECT(tail.accesses == 6);
  EXPECT(tail.hits == 2);
  EXPECT(tail.fills == 4);
  EXPECT(tail.evictions == 4);
  EXPECT(tail.dirty_evictions == 2);
}

void test_lru_sets_are_independent() {
  // 2 sets x 1 way: even pages share set 0, odd pages set 1.
  const std::vector<RefAccess> t = {
      {0, false}, {1, false}, {0, false}, {2, true}, {1, false}, {0, false}};
  // 0 miss, 1 miss, 0 hit, 2 miss (evicts 0), 1 hit, 0 miss (evicts dirty 2)
  const RefCounts r = ref_lru(t, 2, 1);
  EXPECT(r.hits == 2);
  EXPECT(r.fills == 4);
  EXPECT(r.evictions == 2);
  EXPECT(r.dirty_evictions == 1);
}

void test_belady_with_bypass() {
  // A B C A B in 1 set x 2 ways: C is never used again, so the optimum
  // bypasses it and keeps A and B -> 3 misses (without bypass: 4).
  const std::vector<std::uint64_t> abcab = {A, B, C, A, B};
  EXPECT(belady_misses(abcab, 1, 2) == 3);
  // A B C A B C: C is bypassed at index 2 (A and B are needed sooner) and
  // misses again at the end -> 4.
  const std::vector<std::uint64_t> abcabc = {A, B, C, A, B, C};
  EXPECT(belady_misses(abcabc, 1, 2) == 4);
  // 2 sets x 1 way, set 0 sees 0 2 0 2: 2 is needed later than 0, so it is
  // bypassed -> 0 miss, 2 miss, 0 hit, 2 miss; set 1 sees 1 1 -> 1 miss.
  const std::vector<std::uint64_t> two_sets = {0, 1, 2, 0, 1, 2};
  EXPECT(belady_misses(two_sets, 2, 1) == 4);
  // The optimum never exceeds LRU on the LRU test trace (LRU: 6 misses).
  std::vector<std::uint64_t> pages;
  for (const RefAccess& a : kLruTrace) pages.push_back(a.page);
  EXPECT(belady_misses(pages, 1, 2) <= 6);
  // A B C A B C D A: worked by hand, 5 misses (A B C* C* D*; * = bypass).
  const std::vector<std::uint64_t> longer = {A, B, C, A, B, C, D, A};
  EXPECT(belady_misses(longer, 1, 2) == 5);
}

icgmm::gmm::GaussianMixture unit_mixture(icgmm::gmm::Normalizer n = {}) {
  return icgmm::gmm::GaussianMixture(
      {1.0}, {icgmm::gmm::Gaussian2D({0.0, 0.0}, {1.0, 0.0, 1.0})}, n);
}

void test_log_score_by_hand() {
  const double log_2pi = std::log(2.0 * std::numbers::pi);
  // Standard normal in 2-D: log N(0) = -log(2 pi); at (1, 0) subtract 1/2.
  EXPECT(std::abs(ref_log_score(unit_mixture(), 0.0, 0.0) + log_2pi) < 1e-15);
  EXPECT(std::abs(ref_log_score(unit_mixture(), 1.0, 0.0) + log_2pi + 0.5) <
         1e-15);
  // The normalizer maps raw page 12 to x = (12 - 10) * 0.5 = 1.
  const icgmm::gmm::Normalizer n{.p_offset = 10.0, .p_scale = 0.5};
  EXPECT(std::abs(ref_log_score(unit_mixture(n), 12.0, 0.0) + log_2pi + 0.5) <
         1e-15);
  // Two equal halves of the same component give the same density.
  const icgmm::gmm::GaussianMixture halves(
      {0.5, 0.5}, {icgmm::gmm::Gaussian2D({0.0, 0.0}, {1.0, 0.0, 1.0}),
                   icgmm::gmm::Gaussian2D({0.0, 0.0}, {1.0, 0.0, 1.0})});
  EXPECT(std::abs(ref_log_score(halves, 1.0, 0.0) + log_2pi + 0.5) < 1e-15);
  // Diagonal covariance diag(4, 1): det 4, so log N(0) = -log(2 pi) - log 2;
  // at (2, 0) the Mahalanobis term is 2^2 / 4 = 1.
  const icgmm::gmm::GaussianMixture wide(
      {1.0}, {icgmm::gmm::Gaussian2D({0.0, 0.0}, {4.0, 0.0, 1.0})});
  EXPECT(std::abs(ref_log_score(wide, 2.0, 0.0) + log_2pi + std::log(2.0) +
                  0.5) < 1e-15);
}

void test_program_agrees_with_references() {
  // The program's LRU through sim::run_trace on the hand-worked trace.
  icgmm::trace::Trace t("lru");
  for (std::size_t i = 0; i < kLruTrace.size(); ++i) {
    t.push_back({.addr = icgmm::addr_of(kLruTrace[i].page),
                 .time = i,
                 .type = kLruTrace[i].is_write ? icgmm::AccessType::kWrite
                                               : icgmm::AccessType::kRead});
  }
  icgmm::sim::EngineConfig cfg;
  cfg.cache = {.capacity_bytes = 2 * 4096, .block_bytes = 4096,
               .associativity = 2};
  cfg.warmup_fraction = 0.0;
  const icgmm::sim::RunResult lru = icgmm::sim::run_trace(
      t, cfg, std::make_unique<icgmm::cache::LruPolicy>());
  Checks checks;
  check_lru(checks, lru, ref_lru(kLruTrace, 1, 2), cfg.latency);
  EXPECT(checks.ok());

  // A three-component model: log_score within tolerance of the reference.
  const icgmm::gmm::GaussianMixture model(
      {0.2, 0.5, 0.3},
      {icgmm::gmm::Gaussian2D({0.1, 0.2}, {0.01, 0.002, 0.02}),
       icgmm::gmm::Gaussian2D({0.6, 0.4}, {0.05, -0.01, 0.03}),
       icgmm::gmm::Gaussian2D({0.9, 0.9}, {0.002, 0.0, 0.004})},
      {.p_offset = 100.0, .p_scale = 1e-3, .t_offset = 0.0, .t_scale = 1e-2});
  std::vector<ScorePoint> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({100.0 + 20.0 * i, 2.0 * i});
  }
  Checks score_checks;
  check_scores(score_checks, model, points);
  EXPECT(score_checks.ok());
}

void test_off_by_one_fails_each_check() {
  const RefCounts ref = ref_lru(kLruTrace, 1, 2);
  const icgmm::sim::LatencyConfig latency;
  icgmm::sim::RunResult good;
  good.stats.accesses = ref.accesses;
  good.stats.hits = ref.hits;
  good.stats.read_misses = ref.accesses - ref.hits;
  good.stats.fills = ref.fills;
  good.stats.evictions = ref.evictions;
  good.stats.dirty_evictions = ref.dirty_evictions;
  good.requests = ref.accesses;
  good.latency.hit_ns = ref.hits * latency.dram_hit_ns;
  good.latency.fill_read_ns = ref.fills * latency.ssd.read_ns;
  good.latency.writeback_ns = ref.dirty_evictions * latency.ssd.write_ns;
  {
    Checks checks;
    check_lru(checks, good, ref, latency);
    EXPECT(checks.ok());
  }
  {
    icgmm::sim::RunResult off = good;
    ++off.stats.hits;  // one hit too many
    Checks checks;
    check_lru(checks, off, ref, latency);
    EXPECT(!checks.ok());
  }
  {
    icgmm::sim::RunResult off = good;
    off.latency.writeback_ns += 1;  // AMAT off by 1 ns in total
    Checks checks;
    check_lru(checks, off, ref, latency);
    EXPECT(!checks.ok());
  }
  {
    // Misses one below the optimum are impossible; at the optimum they pass.
    icgmm::cache::CacheStats stats;
    stats.read_misses = 2;
    Checks below;
    check_belady_bound(below, stats, 3);
    EXPECT(!below.ok());
    stats.read_misses = 3;
    Checks at;
    check_belady_bound(at, stats, 3);
    EXPECT(at.ok());
  }
  {
    icgmm::sim::RunResult other = good;
    ++other.stats.read_misses;  // a miss count + 1
    Checks checks;
    check_same_counts(checks, "drivers", good, other);
    EXPECT(!checks.ok());
    Checks same;
    check_same_counts(same, "drivers", good, good);
    EXPECT(same.ok());
  }
}

void test_quantile() {
  EXPECT(quantile({}, 0.5) == 0.0);
  EXPECT(quantile({3.0, 1.0, 2.0}, 0.5) == 2.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(quantile(hundred, 0.99) == 99.0);
  EXPECT(quantile(hundred, 0.50) == 50.0);
  EXPECT(quantile(hundred, 1.0) == 100.0);
}

}  // namespace

int main() {
  test_lru_one_set_two_ways();
  test_lru_sets_are_independent();
  test_belady_with_bypass();
  test_log_score_by_hand();
  test_program_agrees_with_references();
  test_off_by_one_fails_each_check();
  test_quantile();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test: all checks passed\n";
  return 0;
}
