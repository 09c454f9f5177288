// SCHED-SCALE: scheduler + channel scale trajectory.
//
// Runs the paper scenario at constant node density for n = 100 / 1k /
// 10k / 100k / 1M sensors and reports wall-clock events/sec,
// node-sim-seconds per wall-second (World construction included) and
// peak RSS, so every later PR can prove (or refute) hot-path speedups
// against the committed BENCH_scheduler.json baseline (format:
// docs/performance.md). Each point runs in a forked child, so its peak
// RSS is its own.
//
// Usage: scheduler_scale [--out FILE] [--max-n N]
//   --out FILE   JSON output path (default: no JSON, stdout table only)
//   --max-n N    largest population to run (default 100000; the n = 1M
//                point needs ~3.3 GB and runs only when asked for)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "experiment/world.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Point {
  int n = 0;
  double sim_duration_s = 0.0;
  std::uint64_t events = 0;
  double build_wall_s = 0.0;
  double run_wall_s = 0.0;
  double events_per_sec = 0.0;
  double node_sim_s_per_s = 0.0;
  double peak_rss_mb = 0.0;
};

Point run_point(int n, double sim_duration_s) {
  using namespace dftmsn;
  Config c;
  // Constant density: the paper's 100 sensors / (150 m)^2 field, scaled.
  const double scale = std::sqrt(n / 100.0);
  c.scenario.num_sensors = n;
  c.scenario.num_sinks = std::max(1, (3 * n) / 100);
  c.scenario.field_m = 150.0 * scale;
  c.scenario.duration_s = sim_duration_s;
  c.scenario.seed = 42;

  Point p;
  p.n = n;
  p.sim_duration_s = sim_duration_s;

  const auto t0 = Clock::now();
  World world(c, ProtocolKind::kOpt);
  p.build_wall_s = seconds_since(t0);

  const auto t1 = Clock::now();
  world.run();
  p.run_wall_s = seconds_since(t1);

  p.events = world.sim().events_executed();
  p.events_per_sec =
      p.run_wall_s > 0 ? static_cast<double>(p.events) / p.run_wall_s : 0.0;
  const double wall = p.build_wall_s + p.run_wall_s;
  p.node_sim_s_per_s = wall > 0 ? n * sim_duration_s / wall : 0.0;
  return p;
}

/// run_point in a forked child, whose ru_maxrss (from wait4) becomes the
/// point's peak_rss_mb: no point inherits a larger one's heap.
Point run_point_in_child(int n, double sim_duration_s) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int rc = 1;
    try {
      const Point p = run_point(n, sim_duration_s);
      if (::write(fds[1], &p, sizeof p) == static_cast<ssize_t>(sizeof p))
        rc = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scheduler_scale: n=%d: %s\n", n, e.what());
    }
    ::_exit(rc);
  }
  ::close(fds[1]);
  Point p;
  std::size_t got = 0;
  while (got < sizeof p) {
    const ssize_t r =
        ::read(fds[0], reinterpret_cast<char*>(&p) + got, sizeof p - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
    } else if (r == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  if (got != sizeof p || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("scale point n=" + std::to_string(n) + " failed");
  p.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return p;
}

void write_json(const std::string& path, const std::vector<Point>& points) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"scheduler_scale\",\n  \"protocol\": \"OPT\",\n"
      << "  \"seed\": 42,\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "    {\"n\": " << p.n << ", \"sim_duration_s\": " << p.sim_duration_s
        << ", \"events\": " << p.events << ", \"build_wall_s\": "
        << p.build_wall_s << ", \"run_wall_s\": " << p.run_wall_s
        << ", \"events_per_sec\": " << static_cast<std::uint64_t>(p.events_per_sec)
        << ", \"node_sim_s_per_s\": "
        << static_cast<std::uint64_t>(p.node_sim_s_per_s)
        << ", \"peak_rss_mb\": " << p.peak_rss_mb << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  int max_n = 100'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--max-n" && i + 1 < argc) {
      max_n = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: scheduler_scale [--out FILE] [--max-n N]\n";
      return 2;
    }
  }

  // Sim horizons chosen so each point executes a few hundred thousand to a
  // few million events: enough to amortize startup, bounded wall-clock.
  const std::vector<std::pair<int, double>> schedule = {
      {100, 1000.0},   {1000, 200.0},   {10'000, 50.0},
      {100'000, 10.0}, {1'000'000, 2.0}};

  std::vector<Point> points;
  std::cout << "SCHED-SCALE: events/sec at constant density (OPT, seed 42)\n";
  std::cout << "       n     sim_s        events   build_s     run_s    events/s"
               "  node-sim-s/s  peak_rss_mb\n";
  for (const auto& [n, dur] : schedule) {
    if (n > max_n) continue;
    const Point p = run_point_in_child(n, dur);
    points.push_back(p);
    std::printf("%8d  %8.0f  %12llu  %8.2f  %8.2f  %10.0f  %12.0f  %11.1f\n",
                p.n, p.sim_duration_s,
                static_cast<unsigned long long>(p.events), p.build_wall_s,
                p.run_wall_s, p.events_per_sec, p.node_sim_s_per_s,
                p.peak_rss_mb);
  }
  if (!out_path.empty()) write_json(out_path, points);
  return 0;
}
