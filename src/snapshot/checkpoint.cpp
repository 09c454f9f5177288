#include "snapshot/checkpoint.hpp"

#include <cstring>

#include "common/config_io.hpp"

namespace dftmsn {
namespace {

constexpr char kMagic[8] = {'D', 'F', 'T', 'M', 'S', 'N', 'C', 'K'};
// v2: world header gained a telemetry flag, the world stream a trailing
// registry section, and metrics drops are keyed on DropReason.
// v3: trace-driven mobility (MobilityKind::kTrace) serializes a new
// trace_mobility model section, and the registered config key set (which
// feeds the meta config digest) gained scenario.trace_path.
// v4: every "rng" section holds (u64 seed, u64 draws) instead of the
// mt19937_64 textual state. Strict equality check: older files are
// rejected, not migrated.
constexpr std::uint32_t kFormatVersion = 4;
constexpr std::size_t kDigestBytes = 8;

}  // namespace

std::uint64_t config_digest(const Config& config, ProtocolKind kind) {
  snapshot::StateHash h;
  for (const std::string& kv : list_config_keys(config)) {
    h.update(kv.data(), kv.size());
    h.update("\n", 1);
  }
  const std::uint32_t k = static_cast<std::uint32_t>(kind);
  h.update(&k, sizeof(k));
  return h.value();
}

std::vector<std::uint8_t> make_checkpoint(const World& world) {
  // Magic + version sit outside the section structure so a reader can
  // reject a foreign file before trusting any embedded length field.
  snapshot::Writer w;
  for (const char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kFormatVersion);

  w.begin_section("meta");
  w.u64(config_digest(world.config(), world.kind()));
  w.u32(static_cast<std::uint32_t>(world.kind()));
  w.u64(world.config().scenario.seed);
  w.f64(world.sim().now());
  w.u64(world.sim().events_executed());
  w.end_section();

  const std::vector<std::uint8_t> state = world.serialize_state();
  w.begin_section("state");
  w.size(state.size());
  w.end_section();

  std::vector<std::uint8_t> image = w.bytes();
  image.insert(image.end(), state.begin(), state.end());

  snapshot::StateHash h;
  h.update(image.data(), image.size());
  const std::uint64_t digest = h.value();
  for (std::size_t i = 0; i < kDigestBytes; ++i)
    image.push_back(static_cast<std::uint8_t>(digest >> (8 * i)));
  return image;
}

void write_checkpoint(const std::string& path, const World& world) {
  snapshot::write_file_atomic(path, make_checkpoint(world));
}

CheckpointMeta read_checkpoint_meta(const std::vector<std::uint8_t>& image,
                                    std::vector<std::uint8_t>* state) {
  if (image.size() < sizeof(kMagic) + 4 + kDigestBytes)
    throw snapshot::SnapshotError("checkpoint: truncated file");

  // Check the trailing digest first: a torn write fails here with one
  // clear message rather than as some arbitrary downstream parse error.
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < kDigestBytes; ++i)
    stored |= static_cast<std::uint64_t>(
                  image[image.size() - kDigestBytes + i])
              << (8 * i);
  snapshot::StateHash h;
  h.update(image.data(), image.size() - kDigestBytes);
  if (h.value() != stored)
    throw snapshot::SnapshotError(
        "checkpoint: digest mismatch (torn or corrupt file)");

  if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0)
    throw snapshot::SnapshotError("checkpoint: bad magic");

  std::vector<std::uint8_t> structured(
      image.begin() + static_cast<std::ptrdiff_t>(sizeof(kMagic)),
      image.end() - static_cast<std::ptrdiff_t>(kDigestBytes));
  snapshot::Reader r(std::move(structured));
  CheckpointMeta meta;
  meta.version = r.u32();
  if (meta.version != kFormatVersion)
    throw snapshot::SnapshotError(
        "checkpoint: unsupported format version " +
        std::to_string(meta.version) + " (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  r.begin_section("meta");
  meta.config_digest = r.u64();
  meta.protocol = r.u32();
  meta.seed = r.u64();
  meta.time = r.f64();
  meta.events = r.u64();
  r.end_section();

  r.begin_section("state");
  const std::size_t state_len = r.size();
  r.end_section();
  const std::size_t state_begin = sizeof(kMagic) + r.position();
  if (state_begin + state_len + kDigestBytes != image.size())
    throw snapshot::SnapshotError("checkpoint: state length mismatch");
  if (state)
    state->assign(image.begin() + static_cast<std::ptrdiff_t>(state_begin),
                  image.end() - static_cast<std::ptrdiff_t>(kDigestBytes));
  return meta;
}

CheckpointMeta read_checkpoint_file(const std::string& path,
                                    std::vector<std::uint8_t>* state) {
  try {
    return read_checkpoint_meta(snapshot::read_file(path), state);
  } catch (const snapshot::SnapshotError& e) {
    // Image-level validation doesn't know the file name; re-attach it so
    // a torn or corrupt checkpoint is reported against its path.
    throw snapshot::SnapshotError("checkpoint " + path + ": " + e.what());
  }
}

std::unique_ptr<World> resume_world(const Config& config, ProtocolKind kind,
                                    const std::vector<std::uint8_t>& image,
                                    bool verify,
                                    const std::atomic<bool>* abort,
                                    std::atomic<std::uint64_t>* progress) {
  std::vector<std::uint8_t> recorded;
  const CheckpointMeta meta = read_checkpoint_meta(image, &recorded);

  if (meta.config_digest != config_digest(config, kind))
    throw snapshot::SnapshotError(
        "checkpoint: config/protocol drift — checkpoint was written under "
        "different parameters; refusing to resume");
  if (meta.seed != config.scenario.seed)
    throw snapshot::SnapshotError("checkpoint: seed mismatch");

  auto world = std::make_unique<World>(config, kind);
  if (abort) world->sim().set_abort_flag(abort);
  if (progress) world->sim().set_progress_counter(progress);
  world->replay_to(meta.events, meta.time);
  if (verify) snapshot::require_identical(recorded, world->serialize_state());
  return world;
}

}  // namespace dftmsn
