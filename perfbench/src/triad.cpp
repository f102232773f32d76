// perfbench_triad: STREAM-triad memory bandwidth probe, a[i] = b[i] + s*c[i].
//
//   perfbench_triad
//
// Each array is sized to at least 4x the last-level cache, the STREAM rule,
// so the triad streams from DRAM. One thread per core works on its own
// slice, first-touched by that thread. Bandwidth counts STREAM's 24 bytes
// per element (two reads, one write), the median of the timed repetitions.
// Prints one JSON line. It runs as its own process so its arrays never count
// towards a workload's peak RSS.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Largest data/unified cache of cpu0 in bytes, from sysfs — the figure
/// lscpu reports as the last-level cache. 0 when unknown.
std::size_t last_level_cache_bytes() {
  std::size_t best = 0;
  int best_level = -1;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_file(dir + "level"), size_file(dir + "size"),
        type_file(dir + "type");
    int level = 0;
    std::string size, type;
    if (!(level_file >> level) || !(size_file >> size) || !(type_file >> type))
      continue;
    if (type == "Instruction" || level < best_level) continue;
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    best = bytes;
    best_level = level;
  }
  return best;
}

}  // namespace

int main() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t llc = last_level_cache_bytes();
  const std::size_t array_bytes =
      std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  const std::size_t n = array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const double scalar = 3.0;

  const auto parallel = [&](auto body) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        body(n * t / threads, n * (t + 1) / threads);
      });
    for (std::thread& th : pool) th.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0;
      b[i] = 1;
      c[i] = 2;
    }
  });
  std::vector<double> seconds;
  for (int rep = 0; rep < 6; ++rep) {
    const double t0 = now_s();
    parallel([&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + scalar * pc[i];
    });
    if (rep > 0) seconds.push_back(now_s() - t0);  // rep 0 warms up
  }
  if (a[n / 2] != 1 + scalar * 2) {
    std::fprintf(stderr, "perfbench_triad: wrong result\n");
    return 1;
  }
  std::sort(seconds.begin(), seconds.end());
  const double median = seconds[seconds.size() / 2];
  const double gbps = 3.0 * static_cast<double>(n * sizeof(double)) / median / 1e9;
  std::printf("{\"triad_gbps\": %.6f, \"array_mib\": %.1f, \"llc_mib\": %.1f, "
              "\"threads\": %u}\n",
              gbps, static_cast<double>(array_bytes) / (1 << 20),
              static_cast<double>(llc) / (1 << 20), threads);
  return 0;
}
