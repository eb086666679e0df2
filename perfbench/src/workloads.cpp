#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/icgmm.hpp"
#include "core/threshold.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "runtime/replay.hpp"
#include "spans.hpp"
#include "trace/generator.hpp"
#include "trace/timestamp_transform.hpp"

namespace perfbench {

namespace {

using namespace icgmm;

// Shipped defaults are used everywhere: K = 256 (gmm::EmConfig), the
// paper's 64 MiB / 4 KiB / 8-way cache, RuntimeConfig's 4 shards with
// synchronous GMM and the float scorer, and icgmm_serve's 2 workers.
constexpr std::size_t kPolicyRequests = 1'000'000;
constexpr std::size_t kBatch = 64;
constexpr std::uint32_t kServeThreads = 4;
constexpr std::size_t kWireRequests = 2'000'000;
constexpr std::size_t kWireTrainRequests = 200'000;  // icgmm_serve default
constexpr double kWireThresholdPercentile = 0.05;     // icgmm_serve recipe
constexpr std::uint32_t kWireWorkers = 2;             // icgmm_serve default
constexpr std::uint32_t kWireClients = 2;
constexpr std::size_t kWireWindow = 8;
constexpr std::size_t kScorePoints = 4096;
constexpr std::size_t kScoreBlock = 64;
constexpr int kScoreRepeats = 5;
constexpr auto kStrategy = cache::GmmStrategy::kCachingEviction;

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double per_kilo(std::uint64_t count, std::uint64_t requests) {
  return requests == 0 ? 0.0
                       : static_cast<double>(count) * 1000.0 /
                             static_cast<double>(requests);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// What one run measured, layer by layer; turned into metrics at the end.
struct Measured {
  double setup_s = 0.0;
  double generate_s = 0.0;
  double train_s = 0.0;
  double tune_s = 0.0;
  std::uint32_t em_iterations = 0;
  double score_ns = 0.0;

  // One sample per measured window (a round or a pass): its throughput in
  // requests per second, and the median and 99th percentile of its
  // 64-request batch durations in microseconds.
  std::vector<double> throughput;
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  double apply_ns = 0.0;              ///< time inside apply_batch
  std::uint64_t applied = 0;          ///< requests those calls carried
  std::vector<double> thread_spread;  ///< slowest / fastest, per round
  double shard_skew = 1.0;

  // Measured window (after the warm-up discard).
  cache::CacheStats stats;
  sim::LatencyBreakdown latency;
  std::uint64_t inferences = 0;
  std::uint64_t inference_requests = 0;  ///< requests the inferences cover

  // Server stages, read through the METRICS verb (traced wire runs only).
  double decode_p50 = 0.0, queue_p50 = 0.0, queue_p99 = 0.0;
  double apply_p50 = 0.0, apply_p99 = 0.0, flush_p50 = 0.0;
  double replies_per_writev = 0.0;
};

/// Closes one measured window's batch-duration sample.
void add_window(Measured& m, std::vector<double>& batch_us) {
  m.window_p50.push_back(quantile(batch_us, 0.50));
  m.window_p99.push_back(quantile(batch_us, 0.99));
  batch_us.clear();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The make-up of a served or simulated trace, for the stderr report.
void describe_inputs(Result& res, const trace::Trace& t,
                     const gmm::GaussianMixture& model, double threshold) {
  res.notes.push_back(
      "inputs: " + std::to_string(t.size()) + " requests, " +
      std::to_string(t.unique_pages()) + " distinct pages against " +
      std::to_string(cache::CacheConfig{}.blocks()) + " blocks, write share " +
      std::to_string(t.write_fraction()) + ", K " +
      std::to_string(model.size()) + ", threshold " + std::to_string(threshold));
}

/// Algorithm-1 timestamps, generated once over the whole stream.
template <typename AccessT>
std::vector<AccessT> to_stream(const trace::Trace& t) {
  trace::TimestampTransform transform;
  std::vector<AccessT> stream;
  stream.reserve(t.size());
  for (const trace::Record& r : t) {
    stream.push_back({.page = r.page(), .timestamp = transform.next(),
                      .is_write = r.is_write()});
  }
  return stream;
}

/// Every (n / kScorePoints)-th (page, timestamp) pair of the stream.
template <typename AccessT>
std::vector<ScorePoint> score_points(const std::vector<AccessT>& stream) {
  std::vector<ScorePoint> points;
  const std::size_t step = std::max<std::size_t>(1, stream.size() / kScorePoints);
  for (std::size_t i = 0; i < stream.size() && points.size() < kScorePoints;
       i += step) {
    points.push_back({static_cast<double>(stream[i].page),
                      static_cast<double>(stream[i].timestamp)});
  }
  return points;
}

/// Median ns per GaussianMixture::log_score call over blocks of kScoreBlock
/// consecutive calls on the sample, repeated kScoreRepeats times.
double time_scores(const gmm::GaussianMixture& model,
                   const std::vector<ScorePoint>& points, SpanBuffer& buf,
                   std::uint32_t parent) {
  std::vector<double> per_score;
  volatile double sink = 0.0;
  for (int rep = 0; rep < kScoreRepeats; ++rep) {
    for (std::size_t first = 0; first + kScoreBlock <= points.size();
         first += kScoreBlock) {
      const std::int64_t t0 = now_ns();
      double acc = 0.0;
      for (std::size_t i = first; i < first + kScoreBlock; ++i) {
        acc += model.log_score(points[i].page, points[i].timestamp);
      }
      const std::int64_t t1 = now_ns();
      sink = sink + acc;
      buf.record(Layer::kGmm, "log_score_block", parent, t0, t1);
      per_score.push_back(static_cast<double>(t1 - t0) /
                          static_cast<double>(kScoreBlock));
    }
  }
  return median(per_score);
}

struct Setup {
  trace::Trace trace;
  core::IcgmmSystem system;
  double threshold = 0.0;
};

/// Generate, train and tune: the paper pipeline's set-up, shared by the
/// policy-* and serve-hashmap workloads.
void paper_setup(Setup& s, trace::Benchmark bench, std::uint64_t seed,
                 Measured& m, SpanBuffer& buf, std::uint32_t parent) {
  std::int64_t t0 = now_ns();
  s.trace = trace::generate(bench, kPolicyRequests, seed);
  std::int64_t t1 = now_ns();
  buf.record(Layer::kTrace, "generate", parent, t0, t1);
  m.generate_s = seconds_between(t0, t1);

  t0 = now_ns();
  s.system.train(s.trace);
  t1 = now_ns();
  buf.record(Layer::kGmm, "train", parent, t0, t1);
  m.train_s = seconds_between(t0, t1);
  m.em_iterations = s.system.policy_engine().report().iterations;

  t0 = now_ns();
  s.threshold = s.system.pick_threshold(s.trace, kStrategy);
  t1 = now_ns();
  buf.record(Layer::kCore, "pick_threshold", parent, t0, t1);
  m.tune_s = seconds_between(t0, t1);
}

sim::EngineConfig gmm_engine(const core::IcgmmSystem& system) {
  sim::EngineConfig cfg = system.config().engine;
  cfg.policy_runs_on_miss = true;  // as IcgmmSystem::run_gmm: GMM scores misses
  return cfg;
}

std::unique_ptr<runtime::Runtime> one_shard_runtime(const Setup& s) {
  runtime::RuntimeConfig cfg;
  cfg.cache = s.system.config().engine.cache;
  cfg.shards = 1;
  return s.system.make_runtime(cfg, kStrategy, s.threshold);
}

std::vector<RefAccess> ref_accesses(const trace::Trace& t) {
  std::vector<RefAccess> out;
  out.reserve(t.size());
  for (const trace::Record& r : t) out.push_back({r.page(), r.is_write()});
  return out;
}

/// Counters of the measured window: `to` minus `from` (a default snapshot
/// counts as all zeros), with the shard skew max / mean of per-shard accesses.
void measure_window(Measured& m, const runtime::RuntimeSnapshot& from,
                    const runtime::RuntimeSnapshot& to) {
  const cache::CacheStats& a = from.merged;
  const cache::CacheStats& b = to.merged;
  m.stats.accesses = b.accesses - a.accesses;
  m.stats.hits = b.hits - a.hits;
  m.stats.read_misses = b.read_misses - a.read_misses;
  m.stats.write_misses = b.write_misses - a.write_misses;
  m.stats.fills = b.fills - a.fills;
  m.stats.bypasses = b.bypasses - a.bypasses;
  m.stats.evictions = b.evictions - a.evictions;
  m.stats.dirty_evictions = b.dirty_evictions - a.dirty_evictions;
  m.inferences = to.inferences - from.inferences;
  m.inference_requests = m.stats.accesses;
  double most = 0.0, total = 0.0;
  for (std::size_t i = 0; i < to.per_shard.size(); ++i) {
    const std::uint64_t before =
        i < from.per_shard.size() ? from.per_shard[i].accesses : 0;
    const auto d = static_cast<double>(to.per_shard[i].accesses - before);
    most = std::max(most, d);
    total += d;
  }
  m.shard_skew =
      total > 0.0 ? most * static_cast<double>(to.per_shard.size()) / total
                  : 0.0;
}

// --- policy-hashmap / policy-heap -----------------------------------------

void run_policy(trace::Benchmark bench, const Options& opt,
                std::int64_t process_start_ns, Result& res, Measured& m,
                SpanBuffer& buf, std::uint32_t root) {
  Setup s;
  std::vector<runtime::Access> stream;
  {
    ScopedSpan setup(buf, Layer::kBench, "setup", root);
    paper_setup(s, bench, opt.seed, m, buf, setup.id());
    stream = to_stream<runtime::Access>(s.trace);
  }
  m.setup_s = seconds_between(process_start_ns, now_ns());
  describe_inputs(res, s.trace, s.system.policy_engine().model(), s.threshold);

  const sim::EngineConfig engine = gmm_engine(s.system);
  const std::size_t n = s.trace.size();
  const auto warmup = static_cast<std::size_t>(
      std::clamp(engine.warmup_fraction, 0.0, 0.9) * static_cast<double>(n));
  const core::PolicyEngine& pe = s.system.policy_engine();

  // Timed phase: whole rounds until the time is up. A round is one GMM
  // sim::run_trace over the trace (the throughput sample) followed by the
  // same trace through a 1-shard runtime in 64-request apply_batch calls
  // (the batch-latency samples), whose counters must equal run_trace's.
  sim::RunResult gmm_run;
  std::vector<cache::AccessResult> results(kBatch);
  std::vector<double> batch_us;
  const std::int64_t timed_start = now_ns();
  {
    ScopedSpan measure(buf, Layer::kBench, "measure", root);
    for (;;) {
      ScopedSpan round_span(buf, Layer::kBench, "round", measure.id());
      std::int64_t t0 = now_ns();
      sim::RunResult r =
          sim::run_trace(s.trace, engine, pe.make_policy(kStrategy, s.threshold));
      std::int64_t t1 = now_ns();
      buf.record(Layer::kSim, "run_trace", round_span.id(), t0, t1);
      m.throughput.push_back(static_cast<double>(n) / seconds_between(t0, t1));
      res.attempted += n;

      auto rt = one_shard_runtime(s);
      for (std::size_t i = 0; i < n;) {
        std::size_t len = std::min(kBatch, n - i);
        if (i < warmup && warmup - i < len) len = warmup - i;
        t0 = now_ns();
        rt->apply_batch({stream.data() + i, len}, {results.data(), len});
        t1 = now_ns();
        buf.record(Layer::kRuntime, "apply_batch", round_span.id(), t0, t1);
        if (len == kBatch) {
          batch_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        }
        m.apply_ns += static_cast<double>(t1 - t0);
        m.applied += len;
        i += len;
        if (i == warmup) rt->clear_stats();
      }
      res.attempted += n;
      add_window(m, batch_us);
      sim::RunResult applied;
      applied.stats = rt->merged_stats();
      applied.policy_inferences = rt->inferences();
      check_same_counts(res.checks, "apply_batch (1 shard) vs run_trace",
                        applied, r);
      measure_window(m, {}, rt->snapshot());
      m.thread_spread.push_back(1.0);  // one serving thread

      gmm_run = std::move(r);
      if (seconds_between(timed_start, now_ns()) >= opt.seconds) break;
    }
  }

  // The metrics of record are run_trace's; the shard skew (1 shard) stays.
  m.stats = gmm_run.stats;
  m.latency = gmm_run.latency;
  m.inferences = gmm_run.policy_inferences;
  m.inference_requests = n;  // the policy's counter spans the warm-up too

  ScopedSpan checks(buf, Layer::kBench, "checks", root);
  const std::vector<ScorePoint> points = score_points(stream);
  m.score_ns = time_scores(pe.model(), points, buf, checks.id());
  check_scores(res.checks, pe.model(), points);

  {
    const std::int64_t t0 = now_ns();
    const sim::RunResult lru =
        s.system.run_baseline(s.trace, core::BaselinePolicy::kLru);
    buf.record(Layer::kCore, "run_baseline_lru", checks.id(), t0, now_ns());
    const cache::CacheConfig& geo = engine.cache;
    const RefCounts ref = ref_lru(ref_accesses(s.trace), geo.sets(),
                                  geo.associativity, warmup);
    check_lru(res.checks, lru, ref, engine.latency);
  }
  {
    sim::EngineConfig cold = engine;
    cold.warmup_fraction = 0.0;
    const std::int64_t t0 = now_ns();
    const sim::RunResult whole =
        sim::run_trace(s.trace, cold, pe.make_policy(kStrategy, s.threshold));
    buf.record(Layer::kSim, "run_trace_cold", checks.id(), t0, now_ns());
    std::vector<std::uint64_t> pages;
    pages.reserve(n);
    for (const trace::Record& r : s.trace) pages.push_back(r.page());
    check_belady_bound(res.checks, whole.stats,
                       belady_misses(pages, engine.cache.sets(),
                                     engine.cache.associativity));
  }
  {
    auto rt = one_shard_runtime(s);
    runtime::ReplayConfig rc;
    rc.threads = 1;
    rc.latency = engine.latency;
    rc.transform = engine.transform;
    rc.policy_runs_on_miss = true;
    rc.warmup_fraction = engine.warmup_fraction;
    const std::int64_t t0 = now_ns();
    const runtime::ReplayResult replay = runtime::replay_trace(*rt, s.trace, rc);
    buf.record(Layer::kRuntime, "replay_trace", checks.id(), t0, now_ns());
    check_same_counts(res.checks, "replay_trace (1 thread, 1 shard) vs run_trace",
                      replay.run, gmm_run);
  }
}

// --- serve-hashmap ---------------------------------------------------------

struct ServeWorker {
  std::span<const runtime::Access> chunk;
  SpanBuffer* buf = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t hits = 0;  ///< over every pass, from the per-request results
  sim::LatencyModel latency;  ///< measured passes only
  std::vector<double> batch_us;
  double apply_ns = 0.0;
  std::exception_ptr error;
};

void run_serve(const Options& opt, std::int64_t process_start_ns, Result& res,
               Measured& m, Tracer& tracer, SpanBuffer& buf,
               std::uint32_t root) {
  Setup s;
  std::vector<runtime::Access> stream;
  std::unique_ptr<runtime::Runtime> rt;
  {
    ScopedSpan setup(buf, Layer::kBench, "setup", root);
    paper_setup(s, trace::Benchmark::kHashmap, opt.seed, m, buf, setup.id());
    stream = to_stream<runtime::Access>(s.trace);
    runtime::RuntimeConfig cfg;
    cfg.cache = s.system.config().engine.cache;
    const std::int64_t t0 = now_ns();
    rt = s.system.make_runtime(cfg, kStrategy, s.threshold);
    buf.record(Layer::kRuntime, "make_runtime", setup.id(), t0, now_ns());
  }
  const std::span<const runtime::Access> all(stream);
  std::vector<ServeWorker> workers(kServeThreads);
  for (std::uint32_t t = 0; t < kServeThreads; ++t) {
    workers[t].chunk = net::stream_chunk<runtime::Access>(all, t, kServeThreads);
    workers[t].buf = &tracer.buffer();
  }
  m.setup_s = seconds_between(process_start_ns, now_ns());
  describe_inputs(res, s.trace, s.system.policy_engine().model(), s.threshold);

  // Closed loop: each thread serves its contiguous chunk in 64-request
  // apply_batch calls, one call in flight. A pass is every thread finishing
  // its chunk; pass 0 warms the cache and is left out of the metrics.
  std::barrier sync(static_cast<std::ptrdiff_t>(kServeThreads + 1));
  bool stop = false;
  bool measured = false;
  std::uint32_t pass_span = 0;
  const auto serve_pass = [&](ServeWorker& w) {
    std::vector<cache::AccessResult> results(kBatch);
    w.start_ns = now_ns();
    for (std::size_t i = 0; i < w.chunk.size(); i += kBatch) {
      const std::size_t len = std::min(kBatch, w.chunk.size() - i);
      const std::int64_t t0 = now_ns();
      rt->apply_batch(w.chunk.subspan(i, len), {results.data(), len});
      const std::int64_t t1 = now_ns();
      w.buf->record(Layer::kRuntime, "apply_batch", pass_span, t0, t1);
      for (std::size_t j = 0; j < len; ++j) {
        w.hits += results[j].hit ? 1 : 0;
        if (measured) w.latency.record(results[j], !results[j].hit);
      }
      if (measured) {
        if (len == kBatch) w.batch_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        w.apply_ns += static_cast<double>(t1 - t0);
      }
    }
    w.end_ns = now_ns();
  };
  std::vector<std::thread> threads;
  for (ServeWorker& worker : workers) {
    threads.emplace_back([&, &w = worker] {
      for (;;) {
        sync.arrive_and_wait();
        if (stop) return;
        try {
          serve_pass(w);
        } catch (...) {
          w.error = std::current_exception();
        }
        sync.arrive_and_wait();
      }
    });
  }

  runtime::RuntimeSnapshot first_measured;
  const std::int64_t timed_start = now_ns();
  {
    ScopedSpan measure(buf, Layer::kBench, "measure", root);
    for (int pass = 0;; ++pass) {
      measured = pass > 0;
      if (pass == 1) first_measured = rt->snapshot();
      pass_span = buf.open();
      sync.arrive_and_wait();  // start the pass
      sync.arrive_and_wait();  // every thread finished its chunk
      std::int64_t begin = workers[0].start_ns, end = workers[0].end_ns;
      std::int64_t fastest = end - begin, slowest = fastest;
      for (const ServeWorker& w : workers) {
        begin = std::min(begin, w.start_ns);
        end = std::max(end, w.end_ns);
      }
      for (const ServeWorker& w : workers) {
        fastest = std::min(fastest, w.end_ns - begin);
        slowest = std::max(slowest, w.end_ns - begin);
      }
      buf.close(pass_span, Layer::kBench, "pass", measure.id(), begin, end);
      res.attempted += stream.size();
      if (measured) {
        m.throughput.push_back(static_cast<double>(stream.size()) /
                               seconds_between(begin, end));
        m.thread_spread.push_back(static_cast<double>(slowest) /
                                  static_cast<double>(fastest));
        std::vector<double> batch_us;
        for (ServeWorker& w : workers) {
          batch_us.insert(batch_us.end(), w.batch_us.begin(), w.batch_us.end());
          w.batch_us.clear();
        }
        add_window(m, batch_us);
      }
      bool failed = false;
      for (const ServeWorker& w : workers) failed = failed || w.error != nullptr;
      if (failed ||
          (pass >= 1 && seconds_between(timed_start, now_ns()) >= opt.seconds)) {
        break;
      }
    }
    stop = true;
    sync.arrive_and_wait();
    for (std::thread& t : threads) t.join();
  }
  for (const ServeWorker& w : workers) {
    if (w.error) std::rethrow_exception(w.error);
  }

  const runtime::RuntimeSnapshot last = rt->snapshot();
  measure_window(m, first_measured, last);
  const cache::CacheStats& b = last.merged;
  std::uint64_t result_hits = 0;
  for (const ServeWorker& w : workers) {
    result_hits += w.hits;
    m.apply_ns += w.apply_ns;
    m.latency.hit_ns += w.latency.breakdown().hit_ns;
    m.latency.fill_read_ns += w.latency.breakdown().fill_read_ns;
    m.latency.writeback_ns += w.latency.breakdown().writeback_ns;
    m.latency.bypass_ns += w.latency.breakdown().bypass_ns;
    m.latency.policy_ns += w.latency.breakdown().policy_ns;
  }
  m.applied = m.stats.accesses;

  ScopedSpan checks(buf, Layer::kBench, "checks", root);
  res.checks.equal("per-request hits vs RuntimeSnapshot merged hits",
                   result_hits, b.hits);
  res.checks.equal("merged accesses vs requests sent", b.accesses,
                   res.attempted);
  res.checks.at_least("merged misses vs distinct pages", b.misses(),
                      s.trace.unique_pages());
  const std::vector<ScorePoint> points = score_points(stream);
  m.score_ns = time_scores(s.system.policy_engine().model(), points, buf,
                           checks.id());
  check_scores(res.checks, s.system.policy_engine().model(), points);
}

// --- wire-sysbench ---------------------------------------------------------

struct WireWorker {
  net::Client client;
  std::span<const net::WireAccess> chunk;
  SpanBuffer* buf = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t replies = 0;     ///< over every pass
  std::uint64_t reply_hits = 0;  ///< over every pass
  std::uint64_t reply_count = 0; ///< over every pass
  std::uint64_t replied = 0;     ///< replay_stream's own count, every pass
  // Measured passes only.
  std::uint64_t hits = 0, admitted = 0, dirty = 0, count = 0;
  std::vector<double> batch_us;
  std::exception_ptr error;
};

std::uint64_t metric_of(const net::MetricsReply& reply, std::string_view name) {
  for (const net::MetricsEntry& e : reply.entries) {
    if (e.name == name) return e.value;
  }
  return 0;
}

void run_wire(const Options& opt, std::int64_t process_start_ns, Result& res,
              Measured& m, Tracer& tracer, SpanBuffer& buf, std::uint32_t root) {
  trace::Trace stream_trace;
  std::vector<net::WireAccess> stream;
  core::PolicyEngine engine;  // PolicyEngineConfig defaults, as icgmm_serve
  obs::MetricsRegistry registry;
  std::unique_ptr<runtime::Runtime> rt;
  std::unique_ptr<net::Server> server;
  std::vector<WireWorker> workers(kWireClients);
  {
    ScopedSpan setup(buf, Layer::kBench, "setup", root);
    std::int64_t t0 = now_ns();
    const trace::Trace train_trace = trace::generate(
        trace::Benchmark::kSysbench, kWireTrainRequests, opt.seed);
    stream_trace =
        trace::generate(trace::Benchmark::kSysbench, kWireRequests, opt.seed);
    std::int64_t t1 = now_ns();
    buf.record(Layer::kTrace, "generate", setup.id(), t0, t1);
    m.generate_s = seconds_between(t0, t1);

    t0 = now_ns();
    engine.train(train_trace);
    t1 = now_ns();
    buf.record(Layer::kGmm, "train", setup.id(), t0, t1);
    m.train_s = seconds_between(t0, t1);
    m.em_iterations = engine.report().iterations;

    t0 = now_ns();
    const double threshold = core::threshold_at_percentile(
        engine.training_scores(), kWireThresholdPercentile);
    t1 = now_ns();
    buf.record(Layer::kCore, "threshold_at_percentile", setup.id(), t0, t1);
    m.tune_s = seconds_between(t0, t1);

    stream = to_stream<net::WireAccess>(stream_trace);
    describe_inputs(res, stream_trace, engine.model(), threshold);

    t0 = now_ns();
    runtime::RuntimeConfig rcfg;
    rcfg.metrics = opt.trace ? &registry : nullptr;
    rt = std::make_unique<runtime::Runtime>(
        rcfg, engine.model(),
        cache::GmmPolicyConfig{.strategy = kStrategy, .threshold = threshold});
    t1 = now_ns();
    buf.record(Layer::kRuntime, "make_runtime", setup.id(), t0, t1);

    t0 = now_ns();
    net::ServerConfig scfg;
    scfg.workers = kWireWorkers;
    // Only the traced mode turns on the per-stage histograms.
    scfg.metrics = opt.trace ? &registry : nullptr;
    scfg.trace_sample = opt.trace ? 1 : 0;
    server = std::make_unique<net::Server>(*rt, scfg);
    server->start();
    const std::span<const net::WireAccess> all(stream);
    for (std::uint32_t c = 0; c < kWireClients; ++c) {
      WireWorker& w = workers[c];
      w.client = net::Client::connect("127.0.0.1", server->port());
      if (w.client.negotiate() != net::kProtocolV2) {
        throw std::runtime_error("server did not negotiate protocol v2");
      }
      w.chunk = net::stream_chunk(all, c, kWireClients);
      w.buf = &tracer.buffer();
    }
    t1 = now_ns();
    buf.record(Layer::kNet, "start_and_connect", setup.id(), t0, t1);
  }
  m.setup_s = seconds_between(process_start_ns, now_ns());

  // Closed loop: each client keeps kWireWindow ACCESS batches of 64 in
  // flight on its own connection. A pass is both clients finishing their
  // chunk; pass 0 warms the cache and is left out of the metrics.
  std::barrier sync(static_cast<std::ptrdiff_t>(kWireClients + 1));
  bool stop = false;
  bool measured = false;
  std::uint32_t pass_span = 0;
  const auto wire_pass = [&](WireWorker& w) {
    w.start_ns = now_ns();
    w.replied += net::replay_stream(
        w.client, w.chunk, {.batch = kBatch, .pipeline = kWireWindow},
        [&](const net::AccessReply& r, Clock::time_point ref,
            std::uint32_t count) {
          const std::int64_t done = now_ns();
          const std::int64_t sent =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  ref.time_since_epoch())
                  .count();
          w.buf->record(Layer::kNet, "wire_batch", pass_span, sent, done);
          ++w.replies;
          w.reply_hits += r.hits;
          w.reply_count += r.count;
          if (!measured) return;
          w.hits += r.hits;
          w.admitted += r.admitted;
          w.dirty += r.dirty_evictions;
          w.count += r.count;
          if (count == kBatch) {
            w.batch_us.push_back(static_cast<double>(done - sent) * 1e-3);
          }
        });
    w.end_ns = now_ns();
  };
  std::vector<std::thread> threads;
  for (WireWorker& worker : workers) {
    threads.emplace_back([&, &w = worker] {
      for (;;) {
        sync.arrive_and_wait();
        if (stop) return;
        try {
          if (!w.error) wire_pass(w);
        } catch (...) {
          w.error = std::current_exception();
        }
        sync.arrive_and_wait();
      }
    });
  }

  runtime::RuntimeSnapshot first_measured;
  std::uint64_t expected_replies = 0;
  const std::int64_t timed_start = now_ns();
  {
    ScopedSpan measure(buf, Layer::kBench, "measure", root);
    for (int pass = 0;; ++pass) {
      measured = pass > 0;
      if (pass == 1) first_measured = rt->snapshot();
      pass_span = buf.open();
      sync.arrive_and_wait();
      sync.arrive_and_wait();
      std::int64_t begin = workers[0].start_ns, end = workers[0].end_ns;
      for (const WireWorker& w : workers) {
        begin = std::min(begin, w.start_ns);
        end = std::max(end, w.end_ns);
      }
      std::int64_t fastest = end - begin, slowest = 0;
      for (const WireWorker& w : workers) {
        fastest = std::min(fastest, w.end_ns - begin);
        slowest = std::max(slowest, w.end_ns - begin);
        expected_replies += (w.chunk.size() + kBatch - 1) / kBatch;
      }
      buf.close(pass_span, Layer::kBench, "pass", measure.id(), begin, end);
      res.attempted += stream.size();
      if (measured) {
        m.throughput.push_back(static_cast<double>(stream.size()) /
                               seconds_between(begin, end));
        m.thread_spread.push_back(static_cast<double>(slowest) /
                                  static_cast<double>(fastest));
        std::vector<double> batch_us;
        for (WireWorker& w : workers) {
          batch_us.insert(batch_us.end(), w.batch_us.begin(), w.batch_us.end());
          w.batch_us.clear();
        }
        add_window(m, batch_us);
      }
      bool failed = false;
      for (const WireWorker& w : workers) failed = failed || w.error != nullptr;
      if (failed ||
          (pass >= 1 && seconds_between(timed_start, now_ns()) >= opt.seconds)) {
        break;
      }
    }
    stop = true;
    sync.arrive_and_wait();
    for (std::thread& t : threads) t.join();
  }

  std::uint64_t replied = 0;
  for (const WireWorker& w : workers) {
    if (w.error) {
      try {
        std::rethrow_exception(w.error);
      } catch (const std::exception& e) {
        res.checks.fail(std::string("client connection failed: ") + e.what());
      }
    }
    replied += w.replied;
  }
  res.failed = res.attempted - std::min(res.attempted, replied);

  ScopedSpan checks(buf, Layer::kBench, "checks", root);
  const runtime::RuntimeSnapshot last = rt->snapshot();
  measure_window(m, first_measured, last);

  // The wire reply carries hits, admissions and dirty evictions but not
  // which bypassed requests were writes, so a bypass is charged at the
  // SSD read cost.
  const sim::LatencyConfig lat;
  std::uint64_t replies = 0, reply_hits = 0, reply_count = 0, count = 0;
  for (const WireWorker& w : workers) {
    replies += w.replies;
    reply_hits += w.reply_hits;
    reply_count += w.reply_count;
    count += w.count;
    m.latency.hit_ns += w.hits * lat.dram_hit_ns;
    m.latency.fill_read_ns += w.admitted * lat.ssd.read_ns;
    m.latency.writeback_ns += w.dirty * lat.ssd.write_ns;
    m.latency.bypass_ns += (w.count - w.hits - w.admitted) * lat.ssd.read_ns;
  }
  res.checks.equal("measured reply counts vs measured STATS accesses", count,
                   m.stats.accesses);

  if (!res.checks.ok()) return;  // a broken connection cannot answer STATS
  net::Client& admin = workers[0].client;
  const net::StatsReply stats = admin.stats();
  res.checks.equal("reply hits vs STATS hits", reply_hits, stats.hits);
  res.checks.equal("reply counts vs STATS accesses", reply_count,
                   stats.accesses);
  res.checks.equal("STATS accesses vs requests sent", stats.accesses,
                   res.attempted);
  res.checks.equal("replies vs batches sent", replies, expected_replies);
  res.checks.at_least("STATS misses vs distinct pages",
                      stats.read_misses + stats.write_misses,
                      stream_trace.unique_pages());
  const net::ServerStats ss = server->stats();
  res.checks.equal("server error replies", ss.error_replies, 0);
  res.checks.equal("server protocol errors", ss.protocol_errors, 0);
  m.replies_per_writev =
      ss.writev_calls == 0 ? 0.0
                           : static_cast<double>(ss.writev_replies) /
                                 static_cast<double>(ss.writev_calls);
  if (opt.trace) {
    const net::MetricsReply mr = admin.metrics();
    m.decode_p50 = static_cast<double>(
        metric_of(mr, "icgmm_server_stage_decode_ns_p50"));
    m.queue_p50 = static_cast<double>(
        metric_of(mr, "icgmm_server_stage_queue_ns_p50"));
    m.queue_p99 = static_cast<double>(
        metric_of(mr, "icgmm_server_stage_queue_ns_p99"));
    m.apply_p50 = static_cast<double>(
        metric_of(mr, "icgmm_server_stage_apply_ns_p50"));
    m.apply_p99 = static_cast<double>(
        metric_of(mr, "icgmm_server_stage_apply_ns_p99"));
    m.flush_p50 = static_cast<double>(
        metric_of(mr, "icgmm_server_stage_flush_ns_p50"));
    // The apply stage wraps Runtime::apply_batch on the server's workers.
    m.apply_ns = static_cast<double>(
        metric_of(mr, "icgmm_server_stage_apply_ns_sum"));
    m.applied = ss.requests_served;
  }
  for (WireWorker& w : workers) w.client.close();
  server->stop();

  const std::vector<ScorePoint> points = score_points(stream);
  m.score_ns = time_scores(engine.model(), points, buf, checks.id());
  check_scores(res.checks, engine.model(), points);
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    if (!out.empty()) out += ' ';
    out += std::to_string(x);
  }
  return out;
}

void emit(Result& res, const Measured& m, const Tracer& tracer) {
  res.notes.push_back("window throughput (req/s): " + join(m.throughput));
  res.notes.push_back("window batch p50 (us): " + join(m.window_p50));
  res.notes.push_back("window batch p99 (us): " + join(m.window_p99));
  const std::uint64_t req = m.stats.accesses;
  const auto us_per_req = [req](std::uint64_t ns) {
    return req == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(req) / 1000.0;
  };
  res.end_to_end = {
      {"setup_s", m.setup_s, "s"},
      {"amat_us", us_per_req(m.latency.total()), "us"},
      {"misses_per_kreq", per_kilo(m.stats.misses(), req), "1/kreq"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };

  const std::array<double, kLayerCount> self = self_seconds(tracer.merged());
  // Host timings of the whole stack. Their spread between runs on the
  // reference host exceeds any usable bound, so they are reported here,
  // unbounded, rather than as end-to-end metrics (see README.md).
  res.per_layer = {
      {"throughput_mreq_s", median(m.throughput) / 1e6, "Mreq/s"},
      {"batch_p50_us", median(m.window_p50), "us"},
      {"batch_p99_us", median(m.window_p99), "us"},
      {"trace.generate_s", m.generate_s, "s"},
      {"gmm.train_s", m.train_s, "s"},
      {"gmm.em_iterations", static_cast<double>(m.em_iterations), "count"},
      {"gmm.score_ns", m.score_ns, "ns"},
      {"gmm.scores_per_kreq", per_kilo(m.inferences, m.inference_requests),
       "1/kreq"},
      {"core.tune_s", m.tune_s, "s"},
      {"cache.fills_per_kreq", per_kilo(m.stats.fills, req), "1/kreq"},
      {"cache.bypasses_per_kreq", per_kilo(m.stats.bypasses, req), "1/kreq"},
      {"cache.evictions_per_kreq", per_kilo(m.stats.evictions, req), "1/kreq"},
      {"cache.writebacks_per_kreq", per_kilo(m.stats.dirty_evictions, req),
       "1/kreq"},
      {"sim.hit_us_per_req", us_per_req(m.latency.hit_ns), "us"},
      {"sim.fill_us_per_req", us_per_req(m.latency.fill_read_ns), "us"},
      {"sim.writeback_us_per_req", us_per_req(m.latency.writeback_ns), "us"},
      {"sim.bypass_us_per_req", us_per_req(m.latency.bypass_ns), "us"},
      {"runtime.apply_ns_per_req",
       m.applied == 0 ? 0.0 : m.apply_ns / static_cast<double>(m.applied),
       "ns"},
      {"runtime.thread_spread", median(m.thread_spread), "ratio"},
      {"runtime.shard_skew", m.shard_skew, "ratio"},
      {"net.decode_ns_p50", m.decode_p50, "ns"},
      {"net.queue_ns_p50", m.queue_p50, "ns"},
      {"net.queue_ns_p99", m.queue_p99, "ns"},
      {"net.apply_ns_p50", m.apply_p50, "ns"},
      {"net.apply_ns_p99", m.apply_p99, "ns"},
      {"net.flush_ns_p50", m.flush_p50, "ns"},
      {"net.replies_per_writev", m.replies_per_writev, "ratio"},
  };
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    res.per_layer.push_back({std::string(layer_name(static_cast<Layer>(l))) +
                                 ".self_s",
                             self[l], "s"});
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "policy-hashmap", "policy-heap", "serve-hashmap", "wire-sysbench"};
  return names;
}

Result run_workload(const Options& opt, std::int64_t process_start_ns) {
  Result res;
  Measured m;
  Tracer tracer(opt.trace);
  SpanBuffer& buf = tracer.buffer();
  {
    ScopedSpan root(buf, Layer::kBench, "run");
    if (opt.workload == "policy-hashmap") {
      run_policy(trace::Benchmark::kHashmap, opt, process_start_ns, res, m,
                 buf, root.id());
    } else if (opt.workload == "policy-heap") {
      run_policy(trace::Benchmark::kHeap, opt, process_start_ns, res, m, buf,
                 root.id());
    } else if (opt.workload == "serve-hashmap") {
      run_serve(opt, process_start_ns, res, m, tracer, buf, root.id());
    } else if (opt.workload == "wire-sysbench") {
      run_wire(opt, process_start_ns, res, m, tracer, buf, root.id());
    } else {
      throw std::invalid_argument("unknown workload: " + opt.workload);
    }
  }
  emit(res, m, tracer);
  if (opt.trace && !opt.span_path.empty() &&
      !write_spans(opt.span_path, tracer.merged())) {
    res.checks.fail("cannot write spans to " + opt.span_path);
  }
  return res;
}

}  // namespace perfbench
