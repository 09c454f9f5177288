// perfbench: the repository benchmark binary. Runs one workload of the
// closed-batch set (fig2_sweep, large_world, ckpt_recovery), checks its
// outputs, and prints its metrics; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --worker-exe PATH --rss-probe PATH --work-dir DIR
//
// --trace 0 reports the end-to-end metrics (every observer off);
// --trace 1 reports the per-layer metrics of a separate traced run and
// writes its spans as Chrome trace JSON into --work-dir. perfbench/run.py
// builds this binary, perfbench_rss_probe and the same-tree dftmsn_cli
// and supplies the last three flags.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
#error "perfbench measures optimized Release builds only"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses sanitizer builds"
#endif

namespace {

using perfbench::Outcome;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig2_sweep|large_world|ckpt_recovery --seed N --seconds S "
               "--trace 0|1 --worker-exe PATH --rss-probe PATH --work-dir DIR\n",
               why);
  return 2;
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void print_result(const Outcome& out, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = val;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(val);
        have_seconds = opts.seconds > 0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opts.trace = val == "1";
        have_trace = true;
      } else if (arg == "--worker-exe") {
        opts.worker_exe = val;
      } else if (arg == "--rss-probe") {
        opts.rss_probe = val;
      } else if (arg == "--work-dir") {
        opts.work_dir = val;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  Outcome (*run)(const perfbench::Options&) = nullptr;
  if (opts.workload == "fig2_sweep") run = perfbench::run_fig2_sweep;
  if (opts.workload == "large_world") run = perfbench::run_large_world;
  if (opts.workload == "ckpt_recovery") run = perfbench::run_ckpt_recovery;
  if (run == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || opts.work_dir.empty() ||
      opts.worker_exe.empty() || opts.rss_probe.empty())
    return usage("--seed, --seconds > 0, --trace, --worker-exe, "
                 "--rss-probe and --work-dir are required");
  // Two busy workers plus this (mostly waiting) thread per batch.
  if (cpus_available() < 2) return usage("needs at least 2 CPUs");

  // The ckpt_recovery drill kills workers by SIGSEGV: no core files.
  const rlimit no_core{0, 0};
  setrlimit(RLIMIT_CORE, &no_core);
  std::filesystem::create_directories(opts.work_dir);

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::printf("compiler: %s; flags: %s\n", PERFBENCH_COMPILER,
              PERFBENCH_CXX_FLAGS);
  std::fflush(stdout);

  Outcome out;
  try {
    out = run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  for (perfbench::Metric& m : out.metrics)
    if (!std::isfinite(m.value)) {
      out.errors.push_back(m.name + " is not finite");
      m.value = 0.0;
    }
  for (const std::string& n : out.notes) std::printf("  %s\n", n.c_str());
  for (const perfbench::Metric& m : out.metrics)
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("  %-40s %18.6f 1\n", "failed_ratio",
              out.attempted == 0
                  ? 1.0
                  : static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted));
  for (const std::string& n : out.not_measured)
    std::printf("  not measured: %s\n", n.c_str());
  for (const std::string& e : out.errors)
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  const bool correct = out.errors.empty() && out.failed == 0;
  print_result(out, correct);
  return correct ? 0 : 1;
}
