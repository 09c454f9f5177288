#include "traffic/poisson_source.hpp"

#include <stdexcept>
#include <utility>

namespace dftmsn {

PoissonSource::PoissonSource(Simulator& sim, MessageIdAllocator& ids,
                             NodeId source, double mean_interval_s,
                             std::size_t bits, RandomStream rng, Sink sink)
    : sim_(sim),
      ids_(ids),
      source_(source),
      mean_interval_s_(mean_interval_s),
      bits_(bits),
      rng_(std::move(rng)),
      sink_(std::move(sink)) {
  if (mean_interval_s <= 0)
    throw std::invalid_argument("PoissonSource: mean interval <= 0");
  if (!sink_) throw std::invalid_argument("PoissonSource: null sink");
}

void PoissonSource::start() {
  pending_ = sim_.schedule_in(rng_.exponential(mean_interval_s_),
                              [this] { fire(); });
}

void PoissonSource::stop() {
  stopped_ = true;
  pending_.cancel();
}

void PoissonSource::resume() {
  if (!stopped_) return;
  stopped_ = false;
  pending_ = sim_.schedule_in(rng_.exponential(mean_interval_s_),
                              [this] { fire(); });
}

void PoissonSource::fire() {
  if (stopped_) return;
  Message m;
  m.id = ids_.next();
  m.source = source_;
  m.created = sim_.now();
  m.bits = bits_;
  ++generated_;
  sink_(m);
  pending_ = sim_.schedule_in(rng_.exponential(mean_interval_s_),
                              [this] { fire(); });
}

void PoissonSource::save_state(snapshot::Writer& w) const {
  w.begin_section("poisson_source");
  w.u64(static_cast<std::uint64_t>(generated_));
  w.boolean(stopped_);
  w.boolean(pending_.pending());
  rng_.save_state(w);
  w.end_section();
}

}  // namespace dftmsn
