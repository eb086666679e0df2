#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kTrace: return "trace";
    case Layer::kGmm: return "gmm";
    case Layer::kCore: return "core";
    case Layer::kSim: return "sim";
    case Layer::kRuntime: return "runtime";
    case Layer::kNet: return "net";
  }
  return "unknown";
}

bool SpanBuffer::on() const noexcept { return tracer_->on(); }

std::uint32_t SpanBuffer::record(Layer layer, const char* name,
                                 std::uint32_t parent, std::int64_t start_ns,
                                 std::int64_t end_ns) {
  if (!on()) return 0;
  const std::uint32_t id = tracer_->next_id();
  spans_.push_back({id, parent, thread_, layer, name, start_ns, end_ns});
  return id;
}

std::uint32_t SpanBuffer::open() { return on() ? tracer_->next_id() : 0; }

void SpanBuffer::close(std::uint32_t id, Layer layer, const char* name,
                       std::uint32_t parent, std::int64_t start_ns,
                       std::int64_t end_ns) {
  if (!on()) return;
  spans_.push_back({id, parent, thread_, layer, name, start_ns, end_ns});
}

SpanBuffer& Tracer::buffer() {
  return buffers_.emplace_back(*this,
                               static_cast<std::uint32_t>(buffers_.size()));
}

std::vector<Span> Tracer::merged() const {
  std::vector<Span> all;
  for (const SpanBuffer& b : buffers_) {
    all.insert(all.end(), b.spans().begin(), b.spans().end());
  }
  return all;
}

std::array<double, kLayerCount> self_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::array<double, kLayerCount> self{};
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      std::int64_t cur_start = 0;
      std::int64_t cur_end = 0;
      bool open = false;
      for (auto [a, b] : kids) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
          continue;
        }
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
      if (open) covered += cur_end - cur_start;
    }
    self[static_cast<std::size_t>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,thread,layer,name,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.thread << ','
        << layer_name(s.layer) << ',' << s.name << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
