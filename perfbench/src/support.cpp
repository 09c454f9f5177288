#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "telemetry/json_writer.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_self_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

double peak_rss_children_bytes() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

}  // namespace

std::uint64_t results_digest(const std::vector<dftmsn::RunResult>& results) {
  Fnv f;
  for (const dftmsn::RunResult& r : results) {
    for (double v : {r.delivery_ratio, r.mean_power_mw, r.mean_delay_s,
                     r.mean_hops, r.overhead_bits_per_delivery,
                     r.fairness_jain})
      f.f64(v);
    for (std::uint64_t v :
         {r.generated, r.delivered, r.collisions, r.attempts,
          r.failed_attempts, r.data_transmissions, r.drops_overflow,
          r.drops_threshold, r.drops_delivered, r.events_executed,
          r.faults_injected, r.drops_node_failure, r.frames_fault_corrupted,
          r.invariant_sweeps})
      f.u64(v);
  }
  return f.h;
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_++;
}

double SpanLog::record(std::uint64_t id, std::uint64_t parent,
                       std::int64_t spec, std::string name,
                       Clock::time_point start) {
  const auto end = Clock::now();
  Span s;
  s.id = id;
  s.parent = parent;
  s.spec = spec;
  s.name = std::move(name);
  s.start_s = std::chrono::duration<double>(start - t0_).count();
  s.dur_s = std::chrono::duration<double>(end - start).count();
  const double dur = s.dur_s;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return dur;
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                  "{\"workload\": \"%s\"}, \"traceEvents\": [\n",
               dftmsn::telemetry::json_escape(workload).c_str());
  // One track per spec (tid = spec + 1; tid 0 holds workload-level spans),
  // so Perfetto nests each spec's calls under its spec span by time.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %lld, "
                 "\"args\": {\"span\": %llu, \"parent\": %llu, \"spec\": "
                 "%lld}}%s\n",
                 dftmsn::telemetry::json_escape(s.name).c_str(),
                 s.start_s * 1e6, s.dur_s * 1e6,
                 static_cast<long long>(s.spec + 1),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.spec),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
