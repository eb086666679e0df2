// perfbench — runs one benchmark workload against the program's public API
// and prints its result as one JSON line (the last line of stdout):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every call into a layer, writes them to --spans, and prints the per-layer
// metrics instead. Exit status: 0 when every output check passed, 1 when a
// check failed (the JSON line says "correct": false), 2 on a usage error or
// an exception (no JSON line).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<perfbench::Metric>& metrics) {
  std::cout << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << '}';
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start_ns = perfbench::now_ns();
  perfbench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && opt.seconds > 0.0;
      } else if (flag == "--trace") {
        have_trace = value == "0" || value == "1";
        opt.trace = value == "1";
      } else if (flag == "--spans") {
        opt.span_path = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    usage();
    return 2;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage();
    return 2;
  }

  perfbench::Result res;
  try {
    res = perfbench::run_workload(opt, process_start_ns);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << '\n';
    return 2;
  }

  // Human-readable report on stderr; the JSON result line on stdout.
  for (const auto* list : {&res.end_to_end, &res.per_layer}) {
    for (const perfbench::Metric& m : *list) {
      std::cerr << "  " << m.name << " = " << json_number(m.value) << ' '
                << m.unit << '\n';
    }
  }
  for (const std::string& note : res.notes) std::cerr << note << '\n';
  for (const std::string& f : res.checks.failures()) {
    std::cerr << "CHECK FAILED: " << f << '\n';
  }
  std::cout << "{\"correct\": " << (res.checks.ok() ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"metrics\": ";
  print_metrics(opt.trace ? res.per_layer : res.end_to_end);
  std::cout << '}' << std::endl;
  return res.checks.ok() ? 0 : 1;
}
