// Shared broadcast medium. A transmission is heard by every awake node in
// range; two transmissions overlapping at a receiver corrupt each other
// (no capture). Also provides carrier sense (busy/idle edges) and global
// traffic/collision accounting.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "mobility/mobility_manager.hpp"
#include "net/frame.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot_io.hpp"
#include "telemetry/profiler.hpp"

namespace dftmsn {

/// Callbacks a node's MAC receives from the channel.
class ChannelListener {
 public:
  virtual ~ChannelListener() = default;

  /// A frame finished arriving cleanly.
  virtual void on_frame_received(const Frame& frame) = 0;

  /// A reception finished but was corrupted by an overlapping transmission.
  virtual void on_collision() = 0;

  /// Carrier sense: the channel at this node just became busy / idle.
  virtual void on_channel_busy() = 0;
  virtual void on_channel_idle() = 0;
};

class Channel {
 public:
  struct Counters {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t collisions = 0;      ///< corrupted receptions
    std::uint64_t data_bits_sent = 0;
    std::uint64_t control_bits_sent = 0;
    std::uint64_t faults_corrupted = 0;  ///< receptions killed by fault injection
  };

  /// Fault-injection hook: consulted once per otherwise-clean reception at
  /// frame end; returning true corrupts that reception (the receiver sees
  /// a collision). Calls happen in deterministic event order, so a seeded
  /// hook keeps runs reproducible.
  using CorruptionHook = std::function<bool(NodeId sender, NodeId receiver)>;

  Channel(Simulator& sim, const MobilityManager& mobility, double range_m,
          double bandwidth_bps);

  /// Registers a node. Ids must be added in order 0,1,2,...
  void attach(NodeId id, Radio& radio, ChannelListener& listener);

  /// Broadcasts `frame` from `sender` (radio must be IDLE). Returns the
  /// transmission duration. The sender's radio is held in TX for that long.
  SimTime transmit(NodeId sender, Frame frame);

  /// Airtime of a frame of `bits` bits.
  [[nodiscard]] SimTime tx_duration(std::size_t bits) const;

  /// Carrier sense query: is any transmission audible at `id` right now?
  [[nodiscard]] bool busy(NodeId id) const;

  /// True if any node (regardless of radio state) is within radio range
  /// of `id` — the lone-sender fast-path check.
  [[nodiscard]] bool anyone_in_range(NodeId id) const;

  /// Every node other than `id` within radio range of it (regardless of
  /// radio state), ascending by id: MobilityManager::neighbors_of at the
  /// channel range. Cached per node; the list is refilled on the first
  /// query after the positions epoch moves, so it is always exact. The
  /// reference is valid until the next query for `id`.
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId id) const;

  /// Clears `id`'s reception state (call just before putting its radio to
  /// sleep; an in-progress reception is abandoned without callbacks).
  void forget(NodeId id);

  /// Marks `id` dead/alive (FaultInjector). A failed node hears nothing,
  /// and a transmission whose sender fails mid-frame arrives corrupted at
  /// every receiver (the frame tail was never sent).
  void set_node_failed(NodeId id, bool failed);
  [[nodiscard]] bool node_failed(NodeId id) const;

  /// Installs (or clears, with nullptr) the fault-injection corruption
  /// hook. At most one hook is active at a time.
  void set_corruption_hook(CorruptionHook hook);

  /// Wall-clock profiler for the per-transmit audience scan (telemetry;
  /// nullptr = disabled, never perturbs the simulation).
  void set_profiler(telemetry::Profiler* profiler) { profiler_ = profiler; }

  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Snapshot: counters, fault flags, tx-id allocator and every node's
  /// reception bookkeeping. load_state requires the same node population
  /// to be attached already; in-flight finish_tx events (and the pool
  /// slots they name) are replayed from the event queue (see
  /// snapshot_io.hpp).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  using TxId = std::uint64_t;

  /// One transmission between transmit() and its finish_tx event. Slots
  /// are recycled, and a recycled slot keeps its audience capacity.
  struct InFlight {
    TxId id = 0;
    NodeId sender = 0;
    Frame frame;
    std::vector<NodeId> audience;  ///< receivers snapshotted at frame start
  };

  /// A node's neighbour list at range_m_, valid while `epoch` equals the
  /// mobility positions epoch.
  struct NeighborCache {
    std::uint64_t epoch = ~std::uint64_t{0};
    std::vector<NodeId> ids;
  };

  /// Per-node reception bookkeeping.
  struct NodeRx {
    Radio* radio = nullptr;
    ChannelListener* listener = nullptr;
    std::vector<TxId> hearing;       ///< transmissions currently audible
    TxId locked = 0;                 ///< frame being decoded (0 = none)
    bool locked_clean = false;
  };

  /// Ends the transmission held in in_flight_[slot] and frees the slot.
  void finish_tx(std::uint32_t slot);

  static bool erase_value(std::vector<TxId>& v, TxId value);

  Simulator& sim_;
  const MobilityManager& mobility_;
  double range_m_;
  double bandwidth_bps_;
  std::vector<NodeRx> nodes_;
  std::vector<char> failed_;  ///< parallel to nodes_: 1 = crashed/outage
  mutable std::vector<NeighborCache> neighbor_cache_;  ///< parallel to nodes_
  // A deque, so the element finish_tx is iterating stays put when a
  // listener transmits from inside it and the pool grows.
  std::deque<InFlight> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  TxId next_tx_id_ = 1;
  Counters counters_;
  CorruptionHook corruption_hook_;
  telemetry::Profiler* profiler_ = nullptr;
};

}  // namespace dftmsn
