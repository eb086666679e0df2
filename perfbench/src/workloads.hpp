// The benchmark's four workloads. Each builds its inputs from the seed,
// times calls into the program's public API for the requested number of
// seconds, checks the program's outputs against the references in
// reference.hpp, and returns every metric by name and unit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reference.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced mode writes its spans here (empty = keep them in memory only).
  std::string span_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable facts about the inputs and the rounds, for stderr.
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();

/// Runs one workload. `process_start_ns` (steady clock) anchors setup_s.
/// Throws std::invalid_argument for an unknown workload name.
Result run_workload(const Options& opt, std::int64_t process_start_ns);

}  // namespace perfbench
