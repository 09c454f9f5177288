// MICRO: google-benchmark micro-benches of the library's hot paths — the
// event queue, the FTD queue, the analytic optimizers, the random
// streams, and a short end-to-end simulation slice.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/cts_window_optimizer.hpp"
#include "core/ftd.hpp"
#include "core/ftd_queue.hpp"
#include "core/listen_window_optimizer.hpp"
#include "core/receiver_selection.hpp"
#include "experiment/runner.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace dftmsn;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RandomStream rng(1);
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < n; ++i) q.schedule(rng.uniform01(), [] {});
    while (!q.empty()) q.pop_and_run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_FtdQueueInsertPressure(benchmark::State& state) {
  RandomStream rng(2);
  for (auto _ : state) {
    FtdQueue q(200);
    for (MessageId id = 1; id <= 1000; ++id) {
      Message m;
      m.id = id;
      q.insert(QueuedMessage{m, rng.uniform01(), 0.0});
    }
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FtdQueueInsertPressure);

void BM_FtdQueueAvailableSpace(benchmark::State& state) {
  RandomStream rng(3);
  FtdQueue q(200);
  for (MessageId id = 1; id <= 200; ++id) {
    Message m;
    m.id = id;
    q.insert(QueuedMessage{m, rng.uniform01(), 0.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.available_space_for(0.5));
  }
}
BENCHMARK(BM_FtdQueueAvailableSpace);

void BM_ReceiverSelection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RandomStream rng(4);
  std::vector<Candidate> cands;
  for (int i = 0; i < n; ++i) {
    cands.push_back(Candidate{static_cast<NodeId>(i), rng.uniform01(), 5,
                              false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(select_receivers(0.1, 0.0, 0.9, cands));
  }
}
BENCHMARK(BM_ReceiverSelection)->Arg(4)->Arg(16);

void BM_TauMaxOptimizer(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::vector<double> xis(m, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ListenWindowOptimizer::min_tau_max(xis, 0.1, 128));
  }
}
BENCHMARK(BM_TauMaxOptimizer)->Arg(2)->Arg(4)->Arg(8);

void BM_CtsWindowOptimizer(benchmark::State& state) {
  for (auto _ : state) {
    for (int n = 1; n <= 8; ++n)
      benchmark::DoNotOptimize(CtsWindowOptimizer::min_window(n, 0.1, 4096));
  }
}
BENCHMARK(BM_CtsWindowOptimizer);

void BM_FtdMath(benchmark::State& state) {
  const std::vector<double> xis{0.2, 0.4, 0.6, 0.8};
  for (auto _ : state) {
    for (std::size_t j = 0; j < xis.size(); ++j)
      benchmark::DoNotOptimize(receiver_copy_ftd(0.1, 0.3, xis, j));
    benchmark::DoNotOptimize(sender_ftd_after_multicast(0.1, xis));
  }
}
BENCHMARK(BM_FtdMath);

// A new stream and its first two draws: what most of a World's ~300
// streams cost while it is built (the engine seeds and twists lazily).
void BM_RandomStreamSeedAndDrawTwice(benchmark::State& state) {
  std::uint64_t seed = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    RandomStream rs(seed++);
    benchmark::DoNotOptimize(rs.uniform01());
    benchmark::DoNotOptimize(rs.uniform01());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomStreamSeedAndDrawTwice)->Arg(1);

// Steady-state draws, round-robin over 300 streams already past their
// first block, as a running World interleaves its nodes' streams.
void BM_RandomStreamSteadyRoundRobin(benchmark::State& state) {
  const RandomSource source(static_cast<std::uint64_t>(state.range(0)));
  std::vector<RandomStream> streams;
  for (std::uint64_t i = 0; i < 300; ++i) {
    streams.push_back(source.stream("bench", i));
    for (int k = 0; k < 400; ++k) (void)streams.back().uniform01();
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(streams[i].uniform01());
    if (++i == streams.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomStreamSteadyRoundRobin)->Arg(7);

// Disabled-probe overhead: the whole cost must be one null check. The
// side-effect counter is the oracle — if the value expression ever runs
// on the disabled path the bench aborts, so "zero overhead when off" is
// checked as a correctness property, not inferred from timings.
void BM_TelemetryProbeDisabled(benchmark::State& state) {
  telemetry::Histogram* h = nullptr;
  std::uint64_t evaluated = 0;
  for (auto _ : state) {
    DFTMSN_PROBE_HIST(h, static_cast<double>(++evaluated));
    benchmark::DoNotOptimize(h);
  }
  if (evaluated != 0)
    state.SkipWithError("disabled probe evaluated its argument");
}
BENCHMARK(BM_TelemetryProbeDisabled);

void BM_TelemetryProbeEnabled(benchmark::State& state) {
  telemetry::Registry reg;
  telemetry::Histogram* h = reg.histogram("bench.value", 0.0, 1.0, 32);
  double v = 0.25;
  for (auto _ : state) {
    DFTMSN_PROBE_HIST(h, v);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryProbeEnabled);

void BM_EndToEndSimulationSlice(benchmark::State& state) {
  for (auto _ : state) {
    Config c;
    c.scenario.num_sensors = 30;
    c.scenario.num_sinks = 2;
    c.scenario.duration_s = 300.0;
    benchmark::DoNotOptimize(run_once(c, ProtocolKind::kOpt));
  }
}
BENCHMARK(BM_EndToEndSimulationSlice)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
