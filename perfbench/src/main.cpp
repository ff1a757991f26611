// perfbench: end-to-end benchmark of the gcnt library (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--commit <id>]
//
// Prints the workload's figures, a provenance line, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any output check failed, 2 on a usage error.

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "harness.h"
#include "tensor/simd/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

long l3_bytes() {
  const long size = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (size > 0) return size;
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string text;
  if (!(in >> text) || text.empty()) return 0;
  long value = std::atol(text.c_str());
  if (text.back() == 'K') value *= 1024;
  if (text.back() == 'M') value *= 1024 * 1024;
  return value;
}

std::string provenance(const Options& options, const std::string& commit,
                       const std::string& precision) {
  std::ostringstream out;
  out << "{\"workload\":\"" << options.workload << "\",\"seed\":"
      << options.seed << ",\"seconds\":" << options.seconds
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"cores\":" << std::thread::hardware_concurrency()
      << ",\"kernel_pool\":" << gcnt::kernel_threads() << ",\"simd\":\""
      << gcnt::simd_target_name() << "\",\"precision\":\"" << precision
      << "\",\"l3_bytes\":" << l3_bytes() << ",\"build_type\":\""
      << PERFBENCH_BUILD_TYPE << "\",\"commit\":\"" << json_escape(commit)
      << "\"}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  try {
    if (argc % 2 != 1 || !args.count("--workload") ||
        !args.count("--workdir")) {
      throw gcnt::Error(gcnt::ErrorKind::kUsage, "bad arguments");
    }
    options.workload = args["--workload"];
    options.workdir = args["--workdir"];
    if (args.count("--seed")) options.seed = std::stoull(args["--seed"]);
    if (args.count("--seconds")) options.seconds = std::stod(args["--seconds"]);
    if (args.count("--trace")) options.trace = args["--trace"] == "1";
    if (args.count("--commit")) commit = args["--commit"];
  } catch (const std::exception& e) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--commit ID] ("
              << e.what() << ")\n";
    return 2;
  }
  std::filesystem::create_directories(options.workdir);

  Tracer tracer;
  Result result;
  std::string precision = "fp32";
  try {
    if (options.workload == "infer_300k") {
      result = run_infer_300k(options, tracer);
    } else if (options.workload == "opi_100k") {
      result = run_opi_100k(options, tracer);
    } else if (options.workload == "serve_mixed") {
      result = run_serve_mixed(options, tracer);
    } else if (options.workload == "forward_int8_30k") {
      precision = "int8";
      result = run_forward_int8(options, tracer);
    } else {
      std::cerr << "perfbench: unknown workload " << options.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  if (options.trace) {
    const std::string path = options.workdir + "/trace.json";
    if (!tracer.write_chrome_json(path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
    }
  }

  const std::string prov = provenance(options, commit, precision);
  std::cout << "provenance " << prov << "\n";
  for (const std::string& line : result.named) std::cout << line << "\n";
  for (const std::string& why : result.check_failures) {
    std::cout << "CHECK FAILED: " << why << "\n";
  }

  // Traced runs report the whole catalogue, zero where a layer was idle.
  std::vector<Metric> metrics = result.end_to_end;
  if (options.trace) {
    metrics.clear();
    for (const auto& [name, unit] : layer_metric_units()) {
      double value = 0.0;
      for (const Metric& m : result.layers) {
        if (m.name == name) value = m.value;
      }
      metrics.push_back({name, value, unit});
    }
  }
  const bool correct = result.check_failures.empty();
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, result.attempted)
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  line << "}}";

  std::ofstream record(options.workdir + "/result.json");
  record << "{\"provenance\": " << prov << ",\n \"result\": " << line.str()
         << "}\n";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
