// hdface_e2e — the repository's end-to-end benchmark binary (driven by
// e2ebench/run.py).
//
//   hdface_e2e --workload sparse_scan|dense_pyramid|served_mix --seed N
//              --seconds S --trace 0|1 [--spans-out FILE] [--source-id ID]
//   hdface_e2e --capacity --seed N --seconds S   (served_mix capacity, req/s)
//
// Prints one "env" JSON line, then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. A failed correctness check
// prints the failure to stderr and exits 3 without a result.

#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

#include "core/kernels/kernels.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_metrics(const RunResult& r, bool trace) {
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr, "hdface_e2e: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string source_id = "unknown";
  bool capacity = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key == "--capacity") {
        capacity = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
      const std::string val = argv[++i];
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--trace") opt.trace = std::stoi(val) != 0;
      else if (key == "--spans-out") opt.spans_out = val;
      else if (key == "--source-id") source_id = val;
      else if (key == "--inject") opt.inject = val;
      else return usage(("unknown option " + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed option value");
  }
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");

  try {
    if (capacity) {
      std::printf("{\"served_capacity_rps\": %.6f}\n",
                  measure_served_capacity(opt));
      return 0;
    }
    const std::size_t nproc = hardware_threads();
    RunResult result;
    if (opt.workload == "sparse_scan") result = run_scan(opt, false);
    else if (opt.workload == "dense_pyramid") result = run_scan(opt, true);
    else if (opt.workload == "served_mix") result = run_served(opt);
    else return usage(("unknown workload '" + opt.workload + "'").c_str());

    std::printf("{\"env\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"nproc\": %zu, \"kernel_backend\": \"%s\", "
                "\"build_type\": \"%s\", \"source\": \"%s\"",
                json_escape(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                nproc,
                std::string(hdface::core::kernels::backend_name(
                                hdface::core::kernels::active().backend))
                    .c_str(),
                HDFACE_E2E_BUILD_TYPE, json_escape(source_id).c_str());
    for (const auto& [k, v] : result.info) {
      std::printf(", \"%s\": \"%s\"", k.c_str(), json_escape(v).c_str());
    }
    std::printf("}}\n");
    print_metrics(result, opt.trace);
    return 0;
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "hdface_e2e: correctness check failed: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdface_e2e: error: %s\n", e.what());
    return 4;
  }
}
