// The asynchronous miss pipeline: MissRing semantics (bounded SPSC,
// FIFO, drop accounting), the sharded cache's enqueue-on-miss hook, and
// the Runtime-level eventual-policy mode — sync-vs-async statistical
// equivalence, exact counter identities at drain barriers, demotion
// accounting, and race-freedom of serving threads against the decision
// thread (the TSan targets for this PR).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "cache/policies/classic.hpp"
#include "core/policy_engine.hpp"
#include "core/threshold.hpp"
#include "runtime/miss_ring.hpp"
#include "runtime/runtime.hpp"
#include "trace/timestamp_transform.hpp"
#include "test_util.hpp"

namespace icgmm {
namespace {

using runtime::MissEntry;
using runtime::MissRing;

// --- MissRing unit tests ----------------------------------------------------

TEST(MissRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MissRing(0).capacity(), 2u);
  EXPECT_EQ(MissRing(1).capacity(), 2u);
  EXPECT_EQ(MissRing(3).capacity(), 4u);
  EXPECT_EQ(MissRing(8).capacity(), 8u);
  EXPECT_EQ(MissRing(1000).capacity(), 1024u);
}

TEST(MissRing, FifoOrderAcrossWraparound) {
  MissRing ring(4);
  MissEntry out[8];
  for (std::uint64_t round = 0; round < 5; ++round) {
    // Interleave partial pushes and pops so head/tail lap the buffer.
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_push({.page = round * 10 + i, .timestamp = i}));
    }
    ASSERT_EQ(ring.pop_batch({out, 8}), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(out[i].page, round * 10 + i);
      EXPECT_EQ(out[i].timestamp, i);
    }
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.pushed(), 15u);
  EXPECT_EQ(ring.popped(), 15u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(MissRing, FullRingDropsAndCounts) {
  MissRing ring(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    const bool ok = ring.try_push({.page = i, .timestamp = 0});
    EXPECT_EQ(ok, i < 4) << "push " << i;
  }
  EXPECT_EQ(ring.pushed(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);

  MissEntry out[8];
  ASSERT_EQ(ring.pop_batch({out, 8}), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].page, i);
  EXPECT_EQ(ring.pop_batch({out, 8}), 0u);  // empty pop is a no-op
  // Space freed: pushes are accepted again.
  EXPECT_TRUE(ring.try_push({.page = 99, .timestamp = 1}));
  EXPECT_EQ(ring.pushed(), 5u);
}

TEST(MissRingConcurrency, ProducerConsumerHammerKeepsOrderAndAccounting) {
  MissRing ring(64);
  constexpr std::uint64_t kOffered = 200000;
  std::atomic<bool> done{false};

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kOffered; ++i) {
      ring.try_push({.page = i, .timestamp = i});  // full ring drops
    }
    done.store(true, std::memory_order_release);
  });

  // Consumer: pages must arrive strictly increasing (drops make gaps,
  // never reorders or duplicates).
  std::uint64_t consumed = 0;
  std::uint64_t last_page = 0;
  bool first = true;
  MissEntry out[16];
  while (!done.load(std::memory_order_acquire) || !ring.empty()) {
    const std::size_t n = ring.pop_batch({out, 16});
    for (std::size_t i = 0; i < n; ++i) {
      if (!first) {
        EXPECT_GT(out[i].page, last_page);
      }
      last_page = out[i].page;
      first = false;
    }
    consumed += n;
    if (n == 0) std::this_thread::yield();
  }
  producer.join();

  EXPECT_EQ(consumed, ring.pushed());
  EXPECT_EQ(ring.popped(), ring.pushed());
  EXPECT_EQ(ring.pushed() + ring.dropped(), kOffered);
  EXPECT_GT(consumed, 0u);
}

// --- ShardedCache enqueue hook ----------------------------------------------

TEST(AsyncMissRing, ShardedCacheWithoutCapacityHasNoRings) {
  cache::LruPolicy lru;
  runtime::ShardedCache sc(
      {.cache = test_util::tiny_cache(64, 4), .shards = 2}, lru);
  EXPECT_EQ(sc.miss_ring(0), nullptr);
  EXPECT_EQ(sc.miss_ring(1), nullptr);
  EXPECT_EQ(sc.ring_pushed(), 0u);
  EXPECT_EQ(sc.ring_dropped(), 0u);
}

TEST(AsyncMissRing, EveryMissIsPushedOrCountedDropped) {
  // Tiny rings (capacity 2), no consumer: the accounting must still close
  // exactly — every miss is pushed or dropped, hits push nothing.
  cache::LruPolicy lru;
  runtime::ShardedCache sc({.cache = test_util::tiny_cache(64, 4),
                            .shards = 2,
                            .miss_ring_capacity = 2},
                           lru);
  ASSERT_NE(sc.miss_ring(0), nullptr);

  for (std::uint64_t i = 0; i < 500; ++i) {
    sc.access({.page = i % 300, .timestamp = i, .is_write = false});
  }
  const cache::CacheStats stats = sc.merged_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(sc.ring_pushed() + sc.ring_dropped(), stats.misses());
  EXPECT_EQ(sc.ring_pushed(), 2u * 2u);  // both rings filled to capacity
}

// --- Runtime: eventual-policy mode ------------------------------------------

runtime::RuntimeConfig async_cfg(const cache::CacheConfig& geometry,
                                 std::uint32_t shards) {
  runtime::RuntimeConfig rcfg{.cache = geometry, .shards = shards};
  rcfg.async_miss.enabled = true;
  return rcfg;
}

// Timestamps are Algorithm-1 logical time from a fresh default
// TimestampTransform — the axis PolicyEngine::train fits the model on and
// the one replay_trace serves. Raw record indices run far past the
// trained range, where every page scores below any percentile threshold.
std::vector<runtime::Access> to_accesses(const trace::Trace& t) {
  trace::TimestampTransform transform;
  std::vector<runtime::Access> out;
  out.reserve(t.size());
  for (const trace::Record& r : t) {
    out.push_back({.page = r.page(),
                   .timestamp = transform.next(),
                   .is_write = r.is_write()});
  }
  return out;
}

TEST(AsyncMiss, PrototypeModeRejectsAsyncConfig) {
  cache::LruPolicy lru;
  EXPECT_THROW(
      runtime::Runtime(async_cfg(test_util::tiny_cache(64, 4), 2), lru),
      std::invalid_argument);
}

class AsyncMissGmm : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new trace::Trace(test_util::zipf_trace(60000, 2048, 0.9, 0x66));
    core::PolicyEngineConfig pe_cfg;
    pe_cfg.em.components = 32;
    pe_cfg.em.max_iters = 12;
    pe_cfg.train_subsample = 4000;
    engine_ = new core::PolicyEngine(pe_cfg);
    engine_->train(*trace_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete trace_;
    trace_ = nullptr;
  }

  static std::unique_ptr<runtime::Runtime> make(
      const runtime::RuntimeConfig& rcfg, cache::GmmStrategy strategy,
      double threshold) {
    return std::make_unique<runtime::Runtime>(
        rcfg, engine_->model(),
        cache::GmmPolicyConfig{.strategy = strategy, .threshold = threshold});
  }

  static trace::Trace* trace_;
  static core::PolicyEngine* engine_;
};

trace::Trace* AsyncMissGmm::trace_ = nullptr;
core::PolicyEngine* AsyncMissGmm::engine_ = nullptr;

TEST_F(AsyncMissGmm, SyncVsAsyncHitRatesAgreeAndIdentitiesHold) {
  const cache::CacheConfig geometry = test_util::tiny_cache(64, 8);
  const double threshold =
      core::threshold_at_percentile(engine_->training_scores(), 0.05);
  const auto accesses = to_accesses(*trace_);

  auto sync_rt = make({.cache = geometry, .shards = 2},
                      cache::GmmStrategy::kCachingEviction, threshold);
  sync_rt->apply_batch(accesses);
  const cache::CacheStats sync_stats = sync_rt->merged_stats();

  // Serve in steps of one ring capacity with a drain barrier after each.
  // Every access pushes at most one rescore, so no shard ring can fill
  // between barriers: the run measures deferred decisions, never dropped
  // ones, and the decision lag is bounded by the barrier cadence rather
  // than by how much CPU the decision thread happens to get.
  const runtime::RuntimeConfig acfg = async_cfg(geometry, 2);
  auto async_rt =
      make(acfg, cache::GmmStrategy::kCachingEviction, threshold);
  const std::span<const runtime::Access> all(accesses);
  for (std::size_t i = 0; i < all.size();
       i += acfg.async_miss.ring_capacity) {
    async_rt->apply_batch(all.subspan(
        i, std::min<std::size_t>(acfg.async_miss.ring_capacity,
                                 all.size() - i)));
    async_rt->drain_deferred();
  }
  const runtime::RuntimeSnapshot snap = async_rt->snapshot();

  // Exact identities at the drain barrier.
  EXPECT_EQ(snap.merged.hits + snap.merged.misses(), snap.merged.accesses);
  EXPECT_EQ(snap.merged.accesses, accesses.size());
  EXPECT_EQ(snap.deferred_enqueued, snap.deferred_applied)
      << "drain barrier left enqueued rescores unapplied";
  EXPECT_EQ(snap.deferred_enqueued + snap.deferred_dropped,
            snap.merged.misses())
      << "a miss neither enqueued nor counted dropped";
  EXPECT_EQ(snap.deferred_dropped, 0u)
      << "a ring overflowed between drain barriers";
  EXPECT_GT(snap.deferred_applied, 0u);
  EXPECT_GT(snap.inferences, 0u);  // the decision thread really scored

  // Statistical equivalence: deferring decisions shifts individual
  // admissions/evictions, but with the lag bounded by drain barriers the
  // hit rate on a stable Zipf mix must land close to the synchronous
  // policy's.
  const double sync_rate = sync_stats.hit_rate();
  const double async_rate = snap.merged.hit_rate();
  EXPECT_NEAR(async_rate, sync_rate, 0.05)
      << "async hit rate drifted from sync on the same trace";
}

TEST_F(AsyncMissGmm, DemotionsAreAppliedAndCountedAsEvictions) {
  // Median threshold: the colder half of the score distribution is
  // rejected, so provisional admissions demote in volume.
  const double threshold =
      core::threshold_at_percentile(engine_->training_scores(), 0.5);
  auto rt = make(async_cfg(test_util::tiny_cache(64, 8), 2),
                 cache::GmmStrategy::kCachingEviction, threshold);
  rt->apply_batch(to_accesses(*trace_));
  rt->drain_deferred();
  const runtime::RuntimeSnapshot snap = rt->snapshot();

  EXPECT_GT(snap.deferred_demotions, 0u);
  // A demotion books an eviction (ShardOps::demote), and the lock-free
  // mirrors must agree with the authoritative per-shard stats.
  EXPECT_GE(snap.merged.evictions, snap.deferred_demotions);
  cache::CacheStats authoritative;
  for (const cache::CacheStats& s : snap.per_shard) {
    authoritative.accesses += s.accesses;
    authoritative.evictions += s.evictions;
    authoritative.dirty_evictions += s.dirty_evictions;
  }
  EXPECT_EQ(authoritative.evictions, snap.merged.evictions);
  EXPECT_EQ(authoritative.dirty_evictions, snap.merged.dirty_evictions);
  // kEvictionOnly never demotes, even deferred.
  auto ev = make(async_cfg(test_util::tiny_cache(64, 8), 2),
                 cache::GmmStrategy::kEvictionOnly, threshold);
  ev->apply_batch(to_accesses(*trace_));
  ev->drain_deferred();
  EXPECT_EQ(ev->snapshot().deferred_demotions, 0u);
}

TEST_F(AsyncMissGmm, ClearStatsIsADrainBarrier) {
  const double threshold =
      core::threshold_at_percentile(engine_->training_scores(), 0.05);
  auto rt = make(async_cfg(test_util::tiny_cache(64, 8), 2),
                 cache::GmmStrategy::kCachingEviction, threshold);
  rt->apply_batch(to_accesses(*trace_));
  rt->clear_stats();  // FLUSH semantics: drain, then zero

  const runtime::RuntimeSnapshot snap = rt->snapshot();
  EXPECT_EQ(snap.merged.accesses, 0u);
  EXPECT_EQ(snap.merged.evictions, 0u);
  // Deferred counters are cumulative (they describe the pipeline, not the
  // stats window) — but the barrier must have settled them.
  EXPECT_EQ(snap.deferred_enqueued, snap.deferred_applied);
  // Post-clear serving starts from a policy-consistent cache: no stale
  // pre-clear rescore can demote into the fresh window.
  rt->apply_batch(to_accesses(*trace_));
  rt->drain_deferred();
  const runtime::RuntimeSnapshot after = rt->snapshot();
  EXPECT_EQ(after.merged.hits + after.merged.misses(), after.merged.accesses);
}

TEST_F(AsyncMissGmm, SyncModeKeepsNoAsyncMachinery) {
  const double threshold =
      core::threshold_at_percentile(engine_->training_scores(), 0.05);
  auto rt = make({.cache = test_util::tiny_cache(64, 8), .shards = 2},
                 cache::GmmStrategy::kCachingEviction, threshold);
  EXPECT_EQ(rt->decision_thread(), nullptr);
  EXPECT_EQ(rt->cache().miss_ring(0), nullptr);
  rt->apply_batch(to_accesses(*trace_));
  rt->drain_deferred();  // must be a no-op, not a hang
  const runtime::RuntimeSnapshot snap = rt->snapshot();
  EXPECT_EQ(snap.deferred_enqueued, 0u);
  EXPECT_EQ(snap.deferred_applied, 0u);
  EXPECT_EQ(snap.deferred_demotions, 0u);
}

TEST_F(AsyncMissGmm, ConcurrentServingAgainstDecisionThreadIsRaceFree) {
  // Multiple serving threads hammer the shards while the decision thread
  // applies deferred rescores and demotions under the same locks — the
  // TSan target for the async pipeline.
  const double threshold =
      core::threshold_at_percentile(engine_->training_scores(), 0.5);
  runtime::RuntimeConfig rcfg = async_cfg(test_util::tiny_cache(64, 8), 4);
  rcfg.async_miss.ring_capacity = 256;  // small ring: exercise drops too
  auto rt = make(rcfg, cache::GmmStrategy::kCachingEviction, threshold);

  const auto accesses = to_accesses(*trace_);
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const std::size_t chunk = accesses.size() / kThreads;
      const std::size_t first = w * chunk;
      const std::size_t last =
          w + 1 == kThreads ? accesses.size() : first + chunk;
      rt->apply_batch(std::span<const runtime::Access>(accesses).subspan(
          first, last - first));
    });
  }
  for (auto& t : workers) t.join();
  rt->drain_deferred();

  const runtime::RuntimeSnapshot snap = rt->snapshot();
  EXPECT_EQ(snap.merged.accesses, accesses.size());
  EXPECT_EQ(snap.merged.hits + snap.merged.misses(), snap.merged.accesses);
  EXPECT_EQ(snap.deferred_enqueued, snap.deferred_applied);
  EXPECT_EQ(snap.deferred_enqueued + snap.deferred_dropped,
            snap.merged.misses());
  EXPECT_GT(snap.deferred_applied, 0u);
}

}  // namespace
}  // namespace icgmm
