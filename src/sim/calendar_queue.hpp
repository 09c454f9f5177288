// O(1)-amortized calendar queue (Brown '88 / bucketed timing wheel) with
// deterministic (time, insertion-seq) total order and O(1) cancellation.
//
// Layout: a power-of-two array of buckets; an event at time `t` lives in
// bucket `vbucket(t) & mask` where `vbucket(t) = floor(t / width)` is its
// *virtual bucket* — an integer, so every ordering decision compares
// integers or (time, seq) pairs exactly and the pop sequence is a pure
// function of the schedule/cancel history, never of bucket geometry.
// Dequeue scans buckets from a cursor, accepting only entries whose
// virtual bucket matches the scan position (entries a "year" ahead wait);
// a full fruitless year falls back to a direct min search. The queue
// resizes (doubling / halving) on live-count thresholds and re-derives
// the bucket width from the observed event spacing.
//
// Cancellation: handles reference fixed slots in a pooled generation
// table instead of a per-event heap allocation. A slot is retired (its
// generation bumped) when its entry leaves the queue, so stale handles
// become inert no-ops — same semantics as the historical
// shared_ptr<bool> scheme at zero allocations per event.
//
// Callbacks: a slot names exactly one queued entry, so the callbacks live
// in a queue-owned slab indexed by slot and bucket entries are trivially
// copyable (time, seq, vbucket, slot) records. A sorted mid-bucket insert
// or a resize then moves 32-byte PODs, never a std::function.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn {

namespace detail {

/// One cancellation slot: `gen` invalidates stale handles after reuse,
/// `dead` marks a cancelled (or fired) event awaiting lazy removal.
struct CancelSlot {
  std::uint32_t gen = 0;
  std::uint8_t dead = 1;
};

/// Shared between the queue and every outstanding handle, so handles
/// stay safe to use after the queue is destroyed (kernel edge tests).
struct CancelPool {
  std::vector<CancelSlot> slots;
  std::vector<std::uint32_t> free_list;
  std::size_t live = 0;  ///< scheduled, not cancelled, not fired

  std::uint32_t alloc() {
    std::uint32_t idx;
    if (!free_list.empty()) {
      idx = free_list.back();
      free_list.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(slots.size());
      slots.emplace_back();
    }
    slots[idx].dead = 0;
    ++live;
    return idx;
  }

  /// Retires a slot whose entry left the queue (fired, or cancelled and
  /// finally dropped): bumps the generation so outstanding handles go
  /// inert, then recycles the index.
  void release(std::uint32_t idx) {
    CancelSlot& s = slots[idx];
    if (!s.dead) {
      s.dead = 1;
      --live;
    }
    ++s.gen;
    free_list.push_back(idx);
  }

  [[nodiscard]] bool dead(std::uint32_t idx) const {
    return slots[idx].dead != 0;
  }
};

}  // namespace detail

class CalendarQueue;

/// Handle to a scheduled event; lets the owner cancel it before it fires.
/// Copyable; all copies refer to the same scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  [[nodiscard]] bool pending() const {
    return pool_ && pool_->slots[slot_].gen == gen_ &&
           pool_->slots[slot_].dead == 0;
  }

  /// Cancels the event; a cancelled event is silently skipped when popped.
  /// No-op on an empty, already-fired, or already-cancelled handle.
  void cancel() {
    if (!pool_) return;
    detail::CancelSlot& s = pool_->slots[slot_];
    if (s.gen == gen_ && s.dead == 0) {
      s.dead = 1;
      --pool_->live;
    }
  }

 private:
  friend class CalendarQueue;
  EventHandle(std::shared_ptr<detail::CancelPool> pool, std::uint32_t slot,
              std::uint32_t gen)
      : pool_(std::move(pool)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::CancelPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Calendar queue of (time, insertion-seq) ordered events. Same-time
/// events fire in insertion order, which makes runs bit-for-bit
/// reproducible; the pop sequence is identical to a binary heap's.
class CalendarQueue {
 public:
  using Callback = std::function<void()>;

  CalendarQueue();

  /// Schedules `cb` at absolute time `at` (finite, >= 0). Returns a
  /// cancellation handle.
  EventHandle schedule(SimTime at, Callback cb);

  /// True when no live (non-cancelled) event remains. O(1).
  [[nodiscard]] bool empty() const { return pool_->live == 0; }

  /// Time of the earliest live event; kTimeNever when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Pops and runs the earliest live event; returns its timestamp.
  /// Precondition: !empty().
  SimTime pop_and_run();

  /// Pops the earliest live event without running it, so the caller can
  /// advance its clock first. Precondition: !empty().
  struct Popped {
    SimTime at;
    Callback cb;
  };
  Popped pop();

  /// Number of live events currently queued. O(1).
  [[nodiscard]] std::size_t size() const { return pool_->live; }

  /// Total events ever scheduled (diagnostic counter).
  [[nodiscard]] EventSeq scheduled_count() const { return next_seq_; }

  /// (time, sequence) of every live event, ascending — the schedulable
  /// identity of the queue without its (unserializable) callbacks.
  [[nodiscard]] std::vector<std::pair<SimTime, EventSeq>> pending_schedule()
      const;

  /// Snapshot: scheduled_count plus the pending (time, seq) schedule.
  /// Save-only: callbacks cannot be re-materialized from bytes, so resume
  /// reconstructs the queue by deterministic replay and these bytes act
  /// as the verification oracle (see snapshot_io.hpp). Byte-compatible
  /// with the historical binary-heap encoding.
  void save_state(snapshot::Writer& w) const;

  /// Consumes (and discards) a saved queue state from `r`, keeping the
  /// read cursor aligned for callers restoring surrounding state.
  static void skip_state(snapshot::Reader& r);

 private:
  struct Entry {
    SimTime at;
    EventSeq seq;
    std::uint64_t vbucket;  ///< floor(at / width_) at insertion time
    std::uint32_t slot;     ///< cancellation-pool slot; indexes callbacks_
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  /// One bucket: entries sorted ascending by (at, seq), with a consumed
  /// prefix [0, head) so front removal is O(1) amortized even under
  /// large same-timestamp bursts.
  struct Bucket {
    std::vector<Entry> v;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const { return head == v.size(); }
    [[nodiscard]] Entry& front() { return v[head]; }
    [[nodiscard]] const Entry& front() const { return v[head]; }
    void pop_front() {
      ++head;
      if (head == v.size()) {
        v.clear();
        head = 0;
      } else if (head >= 64 && head * 2 >= v.size()) {
        v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
  };

  [[nodiscard]] std::uint64_t vbucket_of(SimTime at) const {
    return static_cast<std::uint64_t>(at / width_);
  }

  /// Drops dead entries from the front of `b`, retiring their slots.
  void prune_front(Bucket& b) const;

  /// Retires the slot of a cancelled entry that left the queue and frees
  /// its callback.
  void drop_dead(std::uint32_t slot) const {
    callbacks_[slot] = nullptr;
    pool_->release(slot);
  }

  /// Locates the earliest live entry and caches it in front_*. O(1)
  /// amortized; precondition: !empty().
  void find_front() const;

  /// True while the cached front still names the live head of its bucket.
  [[nodiscard]] bool front_cache_valid() const;

  /// Ensures the front cache is valid. Precondition: !empty().
  void ensure_front() const {
    if (!front_cache_valid()) find_front();
  }

  void resize(std::size_t new_bucket_count);

  // Peeks (empty/next_time) prune lazily-cancelled entries and advance
  // the scan cursor, so the structural state is mutable behind the
  // logically-const read API — same pattern as the old heap's
  // skip_cancelled().
  std::shared_ptr<detail::CancelPool> pool_;
  mutable std::vector<Callback> callbacks_;  ///< slot -> callback
  mutable std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;           ///< buckets_.size() - 1 (power of two)
  double width_ = 1.0;             ///< bucket span in simulated seconds
  mutable std::uint64_t cursor_vb_ = 0;  ///< no live entry sits below this
  EventSeq next_seq_ = 0;

  // Front cache: the located minimum. While set, (front_at_, front_seq_)
  // is a lower bound on every live entry — even after the cached slot is
  // cancelled — which is what lets schedule() keep it current in O(1).
  mutable bool front_valid_ = false;
  mutable std::size_t front_bucket_ = 0;
  mutable SimTime front_at_ = 0.0;
  mutable EventSeq front_seq_ = 0;
  mutable std::uint32_t front_slot_ = 0;
};

}  // namespace dftmsn
