#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

struct LruWay {
  std::uint64_t page = 0;
  std::uint64_t last_use = 0;
  bool valid = false;
  bool dirty = false;
};

}  // namespace

RefCounts ref_lru(std::span<const RefAccess> accesses, std::uint64_t sets,
                  std::uint32_t ways, std::size_t counted_from) {
  std::vector<LruWay> cache(sets * ways);
  RefCounts counts;
  std::uint64_t tick = 0;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const RefAccess& a = accesses[i];
    const bool counted = i >= counted_from;
    LruWay* set = &cache[(a.page % sets) * ways];
    ++tick;
    if (counted) ++counts.accesses;

    LruWay* slot = nullptr;
    for (std::uint32_t w = 0; w < ways; ++w) {
      if (set[w].valid && set[w].page == a.page) slot = &set[w];
    }
    if (slot != nullptr) {
      slot->last_use = tick;
      slot->dirty = slot->dirty || a.is_write;
      if (counted) ++counts.hits;
      continue;
    }

    for (std::uint32_t w = 0; w < ways && slot == nullptr; ++w) {
      if (!set[w].valid) slot = &set[w];
    }
    if (slot == nullptr) {
      slot = &set[0];
      for (std::uint32_t w = 1; w < ways; ++w) {
        if (set[w].last_use < slot->last_use) slot = &set[w];
      }
      if (counted) {
        ++counts.evictions;
        if (slot->dirty) ++counts.dirty_evictions;
      }
    }
    *slot = {.page = a.page, .last_use = tick, .valid = true,
             .dirty = a.is_write};
    if (counted) ++counts.fills;
  }
  return counts;
}

std::uint64_t belady_misses(std::span<const std::uint64_t> pages,
                            std::uint64_t sets, std::uint32_t ways) {
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> next_use(pages.size());
  {
    std::unordered_map<std::uint64_t, std::uint64_t> seen;
    seen.reserve(pages.size() / 2);
    for (std::size_t i = pages.size(); i-- > 0;) {
      const auto [it, inserted] = seen.try_emplace(pages[i], i);
      next_use[i] = inserted ? kNever : it->second;
      it->second = i;
    }
  }

  struct Resident {
    std::uint64_t page;
    std::uint64_t next;
  };
  std::vector<Resident> cache(sets * ways);
  std::vector<std::uint32_t> occupancy(sets, 0);
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const std::uint64_t set_index = pages[i] % sets;
    Resident* set = &cache[set_index * ways];
    std::uint32_t& used = occupancy[set_index];
    Resident* hit = nullptr;
    for (std::uint32_t w = 0; w < used; ++w) {
      if (set[w].page == pages[i]) hit = &set[w];
    }
    if (hit != nullptr) {
      hit->next = next_use[i];
      continue;
    }
    ++misses;
    if (used < ways) {
      set[used++] = {pages[i], next_use[i]};
      continue;
    }
    Resident* furthest = &set[0];
    for (std::uint32_t w = 1; w < ways; ++w) {
      if (set[w].next > furthest->next) furthest = &set[w];
    }
    if (next_use[i] < furthest->next) *furthest = {pages[i], next_use[i]};
    // else: bypass — the incoming page is needed no sooner than any resident.
  }
  return misses;
}

double ref_log_score(const icgmm::gmm::GaussianMixture& model, double page,
                     double timestamp) {
  const icgmm::gmm::Normalizer& n = model.normalizer();
  const double xp = (page - n.p_offset) * n.p_scale;
  const double xt = (timestamp - n.t_offset) * n.t_scale;
  const auto weights = model.weights();
  const auto components = model.components();

  std::vector<double> terms;
  terms.reserve(components.size());
  for (std::size_t k = 0; k < components.size(); ++k) {
    if (weights[k] <= 0.0) continue;
    const auto& mean = components[k].mean();
    const auto& cov = components[k].cov();
    const double det = cov.pp * cov.tt - cov.pt * cov.pt;
    const double dp = xp - mean.p;
    const double dt = xt - mean.t;
    // (x - mu)^T Sigma^-1 (x - mu) with the 2x2 inverse written out.
    const double maha =
        (dp * dp * cov.tt - 2.0 * dp * dt * cov.pt + dt * dt * cov.pp) / det;
    terms.push_back(std::log(weights[k]) -
                    std::log(2.0 * std::numbers::pi) - 0.5 * std::log(det) -
                    0.5 * maha);
  }
  if (terms.empty()) return -std::numeric_limits<double>::infinity();
  const double top = *std::max_element(terms.begin(), terms.end());
  double sum = 0.0;
  for (double t : terms) sum += std::exp(t - top);
  return top + std::log(sum);
}

void Checks::equal(const std::string& what, std::uint64_t got,
                   std::uint64_t want) {
  if (got == want) return;
  std::ostringstream os;
  os << what << ": program " << got << " != reference " << want;
  failures_.push_back(os.str());
}

void Checks::at_least(const std::string& what, std::uint64_t got,
                      std::uint64_t floor) {
  if (got >= floor) return;
  std::ostringstream os;
  os << what << ": program " << got << " < bound " << floor;
  failures_.push_back(os.str());
}

void Checks::near(const std::string& what, double got, double want,
                  double tol) {
  if (std::abs(got - want) <= tol) return;
  std::ostringstream os;
  os.precision(17);
  os << what << ": program " << got << " vs reference " << want
     << " (tolerance " << tol << ")";
  failures_.push_back(os.str());
}

void Checks::fail(const std::string& what) { failures_.push_back(what); }

void check_lru(Checks& checks, const icgmm::sim::RunResult& program,
               const RefCounts& ref, const icgmm::sim::LatencyConfig& latency) {
  checks.equal("LRU accesses", program.stats.accesses, ref.accesses);
  checks.equal("LRU hits", program.stats.hits, ref.hits);
  checks.equal("LRU fills", program.stats.fills, ref.fills);
  checks.equal("LRU dirty evictions", program.stats.dirty_evictions,
               ref.dirty_evictions);
  checks.equal("LRU bypasses", program.stats.bypasses, 0);
  if (ref.accesses == 0) {
    checks.fail("LRU reference counted no accesses");
    return;
  }
  const double closed_form_ns =
      static_cast<double>(ref.hits) * static_cast<double>(latency.dram_hit_ns) +
      static_cast<double>(ref.fills) * static_cast<double>(latency.ssd.read_ns) +
      static_cast<double>(ref.dirty_evictions) *
          static_cast<double>(latency.ssd.write_ns);
  const double want_us =
      closed_form_ns / static_cast<double>(ref.accesses) / 1000.0;
  checks.near("LRU AMAT (us)", program.amat_us(), want_us, 1e-9 * want_us);
}

void check_belady_bound(Checks& checks, const icgmm::cache::CacheStats& program,
                        std::uint64_t optimum) {
  checks.at_least("misses from cold vs Belady optimum", program.misses(),
                  optimum);
}

void check_scores(Checks& checks, const icgmm::gmm::GaussianMixture& model,
                  std::span<const ScorePoint> points) {
  for (const ScorePoint& p : points) {
    const double want = ref_log_score(model, p.page, p.timestamp);
    const double got = model.log_score(p.page, p.timestamp);
    const double tol = std::max(kScoreAbsTol, kScoreRelTol * std::abs(want));
    if (!(std::abs(got - want) <= tol)) {
      std::ostringstream os;
      os << "log_score(" << p.page << ", " << p.timestamp << ")";
      checks.near(os.str(), got, want, tol);
      return;  // one mismatch is enough to fail; don't flood the report
    }
  }
}

void check_same_counts(Checks& checks, const std::string& what,
                       const icgmm::sim::RunResult& a,
                       const icgmm::sim::RunResult& b) {
  checks.equal(what + " accesses", a.stats.accesses, b.stats.accesses);
  checks.equal(what + " hits", a.stats.hits, b.stats.hits);
  checks.equal(what + " misses", a.stats.misses(), b.stats.misses());
  checks.equal(what + " fills", a.stats.fills, b.stats.fills);
  checks.equal(what + " bypasses", a.stats.bypasses, b.stats.bypasses);
  checks.equal(what + " dirty evictions", a.stats.dirty_evictions,
               b.stats.dirty_evictions);
  checks.equal(what + " inferences", a.policy_inferences, b.policy_inferences);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

}  // namespace perfbench
