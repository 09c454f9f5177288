#include "sim/calendar_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace dftmsn {

namespace {

constexpr std::size_t kMinBuckets = 16;  // power of two

/// (at, seq) strict weak order shared by insertion and min searches.
bool entry_before(SimTime at_a, EventSeq seq_a, SimTime at_b, EventSeq seq_b) {
  if (at_a != at_b) return at_a < at_b;
  return seq_a < seq_b;
}

}  // namespace

CalendarQueue::CalendarQueue()
    : pool_(std::make_shared<detail::CancelPool>()),
      buckets_(kMinBuckets),
      mask_(kMinBuckets - 1) {}

EventHandle CalendarQueue::schedule(SimTime at, Callback cb) {
  if (!std::isfinite(at) || at < 0)
    throw std::invalid_argument("CalendarQueue: time must be finite and >= 0");

  const std::uint32_t slot = pool_->alloc();
  const std::uint32_t gen = pool_->slots[slot].gen;
  const EventSeq seq = next_seq_++;
  const std::uint64_t vb = vbucket_of(at);
  if (slot == callbacks_.size()) {
    callbacks_.push_back(std::move(cb));
  } else {
    callbacks_[slot] = std::move(cb);
  }

  Bucket& b = buckets_[vb & mask_];
  // Mostly-append: events land in (at, seq) order far more often than not.
  auto pos = b.v.end();
  while (pos != b.v.begin() + static_cast<std::ptrdiff_t>(b.head) &&
         entry_before(at, seq, (pos - 1)->at, (pos - 1)->seq)) {
    --pos;
  }
  b.v.insert(pos, Entry{at, seq, vb, slot});

  if (vb < cursor_vb_) cursor_vb_ = vb;
  // The cache is a lower bound on every live entry even after its slot
  // dies, so beating it proves the newcomer is the global minimum. When
  // the cache is unset (after a pop left survivors) only an empty->one
  // transition may seed it; anything else waits for find_front().
  if (pool_->live == 1 ||
      (front_valid_ && entry_before(at, seq, front_at_, front_seq_))) {
    front_valid_ = true;
    front_bucket_ = vb & mask_;
    front_at_ = at;
    front_seq_ = seq;
    front_slot_ = slot;
  }

  if (pool_->live > 2 * buckets_.size()) resize(2 * buckets_.size());
  return EventHandle{pool_, slot, gen};
}

void CalendarQueue::prune_front(Bucket& b) const {
  while (!b.empty() && pool_->dead(b.front().slot)) {
    drop_dead(b.front().slot);
    b.pop_front();
  }
}

bool CalendarQueue::front_cache_valid() const {
  if (!front_valid_) return false;
  const Bucket& b = buckets_[front_bucket_];
  return !b.empty() && b.front().slot == front_slot_ &&
         !pool_->dead(front_slot_);
}

void CalendarQueue::find_front() const {
  assert(pool_->live > 0 && "find_front on empty queue");

  // Year scan: accept the first entry whose virtual bucket matches the
  // scan position. Entries below cursor_vb_ cannot exist (the cursor is
  // clamped on schedule and only advanced to popped positions), so the
  // first match is the global (at, seq) minimum.
  std::uint64_t vb = cursor_vb_;
  for (std::size_t scanned = 0; scanned < buckets_.size(); ++scanned, ++vb) {
    Bucket& b = buckets_[vb & mask_];
    prune_front(b);
    if (!b.empty() && b.front().vbucket == vb) {
      cursor_vb_ = vb;
      const Entry& e = b.front();
      front_valid_ = true;
      front_bucket_ = vb & mask_;
      front_at_ = e.at;
      front_seq_ = e.seq;
      front_slot_ = e.slot;
      return;
    }
  }

  // Nothing within a year of the cursor: direct search over bucket heads.
  const Entry* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    Bucket& b = buckets_[i];
    prune_front(b);
    if (b.empty()) continue;
    const Entry& e = b.front();
    if (!best || entry_before(e.at, e.seq, best->at, best->seq)) {
      best = &e;
      best_bucket = i;
    }
  }
  assert(best && "live counter out of sync with buckets");
  cursor_vb_ = best->vbucket;
  front_valid_ = true;
  front_bucket_ = best_bucket;
  front_at_ = best->at;
  front_seq_ = best->seq;
  front_slot_ = best->slot;
}

SimTime CalendarQueue::next_time() const {
  if (empty()) return kTimeNever;
  ensure_front();
  return front_at_;
}

CalendarQueue::Popped CalendarQueue::pop() {
  assert(!empty() && "pop on empty queue");
  ensure_front();

  Bucket& b = buckets_[front_bucket_];
  const Entry entry = b.front();
  b.pop_front();
  // Move the callback out before it runs: anything it schedules may grow
  // the slab. Retire the slot first too, so stale handles report
  // !pending() and a cancel() from inside the callback is a no-op.
  Popped popped{entry.at, std::exchange(callbacks_[entry.slot], nullptr)};
  pool_->release(entry.slot);
  cursor_vb_ = entry.vbucket;
  front_valid_ = false;

  if (buckets_.size() > kMinBuckets && pool_->live < buckets_.size() / 2)
    resize(buckets_.size() / 2);
  return popped;
}

SimTime CalendarQueue::pop_and_run() {
  Popped p = pop();
  p.cb();
  return p.at;
}

void CalendarQueue::resize(std::size_t new_bucket_count) {
  // Gather the live entries in (at, seq) order; drop dead ones for good.
  std::vector<Entry> live;
  live.reserve(pool_->live);
  for (Bucket& b : buckets_) {
    for (std::size_t i = b.head; i < b.v.size(); ++i) {
      if (pool_->dead(b.v[i].slot)) {
        drop_dead(b.v[i].slot);
      } else {
        live.push_back(b.v[i]);
      }
    }
  }
  std::sort(live.begin(), live.end(), [](const Entry& a, const Entry& b) {
    return entry_before(a.at, a.seq, b.at, b.seq);
  });

  // Re-derive the bucket width from the observed spacing near the head
  // (Brown's rule of thumb: ~3x the mean gap keeps occupancy near one
  // event per bucket). Same-time bursts contribute zero gaps; fall back
  // to the full spread, then to the current width.
  if (live.size() >= 2) {
    const std::size_t sample = std::min<std::size_t>(live.size(), 25);
    double span = live[sample - 1].at - live[0].at;
    std::size_t gaps = sample - 1;
    if (span <= 0.0) {
      span = live.back().at - live.front().at;
      gaps = live.size() - 1;
    }
    if (span > 0.0) width_ = 3.0 * span / static_cast<double>(gaps);
    // Keep vbucket_of() comfortably inside 64 bits.
    const double max_at = live.back().at;
    if (max_at / width_ > 9.0e15) width_ = max_at / 9.0e15;
  }

  buckets_.assign(new_bucket_count, Bucket{});
  mask_ = new_bucket_count - 1;
  // Ascending insertion keeps every bucket sorted with plain appends.
  for (Entry& e : live) {
    e.vbucket = vbucket_of(e.at);
    buckets_[e.vbucket & mask_].v.push_back(e);
  }
  cursor_vb_ = live.empty() ? 0 : vbucket_of(live.front().at);
  front_valid_ = false;
}

std::vector<std::pair<SimTime, EventSeq>> CalendarQueue::pending_schedule()
    const {
  std::vector<std::pair<SimTime, EventSeq>> out;
  out.reserve(pool_->live);
  for (const Bucket& b : buckets_) {
    for (std::size_t i = b.head; i < b.v.size(); ++i) {
      if (!pool_->dead(b.v[i].slot)) out.emplace_back(b.v[i].at, b.v[i].seq);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CalendarQueue::save_state(snapshot::Writer& w) const {
  w.begin_section("event_queue");
  w.u64(next_seq_);
  const auto pending = pending_schedule();
  w.size(pending.size());
  for (const auto& [at, seq] : pending) {
    w.f64(at);
    w.u64(seq);
  }
  w.end_section();
}

void CalendarQueue::skip_state(snapshot::Reader& r) {
  r.begin_section("event_queue");
  (void)r.u64();
  const std::size_t n = r.size();
  for (std::size_t i = 0; i < n; ++i) {
    (void)r.f64();
    (void)r.u64();
  }
  r.end_section();
}

}  // namespace dftmsn
