// The benchmark's own reference implementations and the output checks built
// on them. Everything here is written apart from the program's src/cache and
// src/gmm code so that a check compares two independent computations:
//
//   * RefLru      — a set-associative write-allocate LRU cache;
//   * belady_misses — Belady's optimum with bypass, per set;
//   * ref_log_score — the mixture log-density in plain double precision.
//
// Checks record failures instead of throwing, so one run reports every
// check that failed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/stats.hpp"
#include "gmm/mixture.hpp"
#include "sim/engine.hpp"

namespace perfbench {

struct RefAccess {
  std::uint64_t page = 0;
  bool is_write = false;
};

struct RefCounts {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
};

/// Set-associative LRU with write-allocate and write-back: a write hit
/// dirties its block, a write miss fills dirty, evicting a dirty block
/// costs one write-back. Counts only accesses at index >= `counted_from`
/// (the warm-up discard); the cache state covers every access.
RefCounts ref_lru(std::span<const RefAccess> accesses, std::uint64_t sets,
                  std::uint32_t ways, std::size_t counted_from = 0);

/// Belady's optimum with bypass, per set: on a miss in a full set the
/// block (resident or incoming) whose next use lies furthest ahead is the
/// one left out of the cache. Returns the minimum number of misses over
/// the whole sequence, from a cold cache.
std::uint64_t belady_misses(std::span<const std::uint64_t> pages,
                            std::uint64_t sets, std::uint32_t ways);

/// Mixture log-density at a raw (page, timestamp) point, from weights(),
/// components() (mean and covariance) and normalizer() alone:
/// log sum_k w_k N(x | mu_k, Sigma_k), max-subtracted.
double ref_log_score(const icgmm::gmm::GaussianMixture& model, double page,
                     double timestamp);

/// Tolerance of ref_log_score against the program's log_score: the larger
/// of kScoreAbsTol and kScoreRelTol * |reference|.
inline constexpr double kScoreAbsTol = 1e-9;
inline constexpr double kScoreRelTol = 1e-12;

class Checks {
 public:
  void equal(const std::string& what, std::uint64_t got, std::uint64_t want);
  void at_least(const std::string& what, std::uint64_t got,
                std::uint64_t floor);
  void near(const std::string& what, double got, double want, double tol);
  void fail(const std::string& what);

  bool ok() const noexcept { return failures_.empty(); }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// LRU run by the program against the reference: hits, fills and dirty
/// evictions exactly, and the AMAT against the closed form
/// (hits * 1 us + fills * 75 us + dirty evictions * 900 us) / requests.
void check_lru(Checks& checks, const icgmm::sim::RunResult& program,
               const RefCounts& ref, const icgmm::sim::LatencyConfig& latency);

/// A policy's misses over a whole trace from a cold cache can be no fewer
/// than Belady's optimum with bypass.
void check_belady_bound(Checks& checks, const icgmm::cache::CacheStats& program,
                        std::uint64_t optimum);

/// The program's log_score against ref_log_score on each sample point.
struct ScorePoint {
  double page = 0.0;
  double timestamp = 0.0;
};
void check_scores(Checks& checks, const icgmm::gmm::GaussianMixture& model,
                  std::span<const ScorePoint> points);

/// Two drivers over the same trace: every counter must agree exactly.
void check_same_counts(Checks& checks, const std::string& what,
                       const icgmm::sim::RunResult& a,
                       const icgmm::sim::RunResult& b);

/// Nearest-rank quantile of an unsorted sample (copied); 0 when empty.
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
