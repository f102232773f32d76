// perfbench_harness: runs one workload and writes its raw measurements.
//
//   perfbench_harness --workload sram_table4 --seed 0 --seconds 20
//
// Writes raw.json in the working directory. Tracing follows RSM_OBS_LEVEL
// (perfbench/run.py sets 0 for the end-to-end run and 1 for the traced run);
// a traced run also measures each layer. Exit status: 0 when every operation
// passed its output checks, 1 when any failed, 2 on a usage or harness error.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "harness.hpp"
#include "obs/env.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace perfbench {

constexpr const char* kRawFile = "raw.json";

double rss_hwm_mb() {
  return static_cast<double>(rsm::obs::sample_resource_usage().max_rss_kb) /
         1024.0;
}

rsm::obs::JsonValue json_array(const std::vector<double>& values) {
  rsm::obs::JsonValue out = rsm::obs::JsonValue::array();
  for (const double v : values) out.push_back(v);
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  rsm::CliArgs cli;
  cli.add_option("workload", "", "sram_table4 | opamp_quadratic | serve_socket");
  cli.add_option("seed", "0", "workload seed; 0 reproduces the paper tables");
  cli.add_option("seconds", "10", "minimum measured time per run");
  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) {
      std::printf("%s", cli.usage("perfbench_harness").c_str());
      return 0;
    }
    RunArgs args;
    args.workload = cli.get("workload");
    args.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    args.seconds = cli.get_double("seconds");
    rsm::obs::apply_env_overrides();
    args.trace = rsm::obs::tracing_enabled();

    rsm::obs::JsonValue out = rsm::obs::JsonValue::object();
    out.set("workload", args.workload);
    out.set("seed", static_cast<std::int64_t>(args.seed));
    out.set("trace", args.trace);
    int failed = 0;
    if (args.workload == "sram_table4" || args.workload == "opamp_quadratic") {
      failed = run_fit_workload(args, out);
    } else if (args.workload == "serve_socket") {
      failed = run_serve_workload(args, out);
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    std::ofstream file(kRawFile);
    file << out.dump() << "\n";
    if (!file) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n", kRawFile);
      return 2;
    }
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
