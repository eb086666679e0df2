// Spans recorded by the benchmark's own code around each call into a layer
// of the program (the traced mode). Each thread appends to its own buffer,
// so recording takes no lock; everything stays in memory until the run
// ends, when the buffers are merged, written out and reduced to self time
// per layer. With tracing off no clock is read and nothing is stored.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

/// The program's modules a span can be attributed to; kBench is the
/// benchmark's own work (set-up glue, reference checks, waiting).
enum class Layer : std::uint8_t {
  kBench,
  kTrace,
  kGmm,
  kCore,
  kSim,
  kRuntime,
  kNet,
};
inline constexpr std::size_t kLayerCount = 7;
const char* layer_name(Layer layer) noexcept;

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t thread = 0;
  Layer layer = Layer::kBench;
  const char* name = "";     ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer;

/// One thread's span buffer. Obtained from Tracer::buffer(); only the
/// owning thread appends.
class SpanBuffer {
 public:
  SpanBuffer(Tracer& tracer, std::uint32_t thread)
      : tracer_(&tracer), thread_(thread) {}

  bool on() const noexcept;
  /// Records a finished span; returns its id (0 when tracing is off).
  std::uint32_t record(Layer layer, const char* name, std::uint32_t parent,
                       std::int64_t start_ns, std::int64_t end_ns);
  /// Reserves an id for a span whose children are recorded before it ends.
  std::uint32_t open();
  void close(std::uint32_t id, Layer layer, const char* name,
             std::uint32_t parent, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  Tracer* tracer_;
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const noexcept { return on_; }
  std::uint32_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A new buffer for one thread. Call from a single thread (before the
  /// workers start); the reference stays valid for the tracer's lifetime.
  SpanBuffer& buffer();

  /// Every span recorded so far, in no particular order.
  std::vector<Span> merged() const;

 private:
  bool on_;
  std::atomic<std::uint32_t> next_id_{1};
  std::deque<SpanBuffer> buffers_;
};

/// RAII span on one buffer; free when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buf, Layer layer, const char* name,
             std::uint32_t parent = 0)
      : buf_(buf), layer_(layer), name_(name), parent_(parent) {
    if (buf_.on()) {
      id_ = buf_.open();
      start_ns_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (buf_.on()) buf_.close(id_, layer_, name_, parent_, start_ns_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const noexcept { return id_; }

 private:
  SpanBuffer& buf_;
  Layer layer_;
  const char* name_;
  std::uint32_t parent_;
  std::uint32_t id_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Self time per layer, in seconds: each span's duration minus the part of
/// it covered by the union of its children, summed over the layer's spans.
/// Concurrent spans of one layer (threads, pipelined batches) add up, so a
/// layer's self time can exceed wall time.
std::array<double, kLayerCount> self_seconds(const std::vector<Span>& spans);

/// Writes one line per span: id,parent,thread,layer,name,start_ns,end_ns.
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
