// Shared pieces of the perfbench binary: timing and statistics helpers,
// the in-memory span log behind the traced run's Chrome trace, the
// allocation counter, and the metric/outcome records every workload
// returns to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "experiment/runner.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set of this process / of its largest waited-for child,
/// in bytes.
double peak_rss_self_bytes();
double peak_rss_children_bytes();

/// FNV-1a over every field of every result (doubles by bit pattern): the
/// bit-for-bit identity the output checks compare.
std::uint64_t results_digest(const std::vector<dftmsn::RunResult>& results);

// --- allocation counting (alloc_count.cpp) ------------------------------

/// Counts global operator new calls made on this thread while alive.
/// Only the traced run opens one; elsewhere the replaced operator new
/// costs one thread-local flag test.
class AllocScope {
 public:
  AllocScope();
  ~AllocScope();
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;
  [[nodiscard]] std::uint64_t count() const;

 private:
  std::uint64_t start_;
};

// --- spans (support.cpp) -----------------------------------------------

/// One timed call the benchmark made into a layer's public API. `spec`
/// groups the spans of one spec (the Chrome trace track); `parent` is
/// the enclosing span's id (0 = the workload root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t spec = -1;
  std::string name;
  double start_s = 0.0;  ///< since the log was created
  double dur_s = 0.0;
};

/// Thread-safe in-memory span store, written out once at exit.
class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}

  /// Reserves an id for a span whose children are recorded before it.
  std::uint64_t next_id();
  /// Records a finished span that started at `start`; returns its duration.
  double record(std::uint64_t id, std::uint64_t parent, std::int64_t spec,
                std::string name, Clock::time_point start);
  /// Times `fn` as one span; returns its duration in seconds.
  template <class Fn>
  double time(std::uint64_t parent, std::int64_t spec, const char* name,
              Fn&& fn) {
    const std::uint64_t id = next_id();
    const auto start = Clock::now();
    fn();
    return record(id, parent, spec, name, start);
  }

  /// Chrome trace-event JSON (Perfetto / chrome://tracing).
  void write_chrome_trace(const std::string& path,
                          const std::string& workload) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_ = 1;
  Clock::time_point t0_;
};

// --- workload interface -------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string worker_exe;  ///< same-tree dftmsn_cli
  std::string rss_probe;   ///< perfbench_rss_probe (ckpt_recovery's worker)
  std::string work_dir;    ///< scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;        ///< failed output checks
  std::vector<std::string> not_measured;  ///< "name: reason"
  std::vector<std::string> notes;         ///< human-readable extras

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// The workloads by name; each runs the timed (untraced) measurement
/// and, when opts.trace, the traced run on top of it.
Outcome run_fig2_sweep(const Options& opts);
Outcome run_large_world(const Options& opts);
Outcome run_ckpt_recovery(const Options& opts);

}  // namespace perfbench
