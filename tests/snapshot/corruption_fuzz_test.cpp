// Corruption fuzz matrix: every durable file kind the sweep machinery
// reads back (checkpoint container + the checkpoint payloads inside it,
// manifest, motion trace) and every frame it reads off a worker stream
// (dispatch frames, the worker requests and results included) is
// subjected to deterministic single-byte flips and truncations at
// positions swept across the whole file. The contract under test: a
// reader either succeeds (the damage hit dead bytes or free text) or
// throws an exception naming the damaged file — never crashes, never
// returns garbage silently. The CI runs this suite under ASan+UBSan,
// which turns "never crashes" into "no out-of-bounds read on any torn
// length field".
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "experiment/dispatch.hpp"
#include "experiment/supervisor.hpp"
#include "experiment/worker_protocol.hpp"
#include "mobility/motion_trace.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

std::vector<std::uint8_t> slurp(const std::string& path) {
  return snapshot::read_file(path);
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Runs `probe` against every mutation of `original` written to
/// `scratch`: one-byte flips on a stride sweeping the whole file (plus
/// the first and last 24 bytes, where magics, counts and digests live)
/// and truncations at representative lengths. The probe must finish or
/// throw an exception whose message names the scratch path.
void fuzz_file(const std::vector<std::uint8_t>& original,
               const std::string& scratch,
               const std::function<void(const std::string&)>& probe) {
  ASSERT_FALSE(original.empty());

  std::vector<std::size_t> flips;
  const std::size_t stride = std::max<std::size_t>(1, original.size() / 41);
  for (std::size_t i = 0; i < original.size(); i += stride)
    flips.push_back(i);
  for (std::size_t i = 0; i < 24 && i < original.size(); ++i) {
    flips.push_back(i);
    flips.push_back(original.size() - 1 - i);
  }

  int damaged_detected = 0;
  for (const std::size_t at : flips) {
    std::vector<std::uint8_t> bytes = original;
    bytes[at] ^= 0xa5;
    spit(scratch, bytes);
    try {
      probe(scratch);  // flip hit slack (dead record, free text): fine
    } catch (const std::exception& e) {
      ++damaged_detected;
      EXPECT_NE(std::string(e.what()).find(scratch), std::string::npos)
          << "flip at byte " << at
          << " produced an error that does not name the file: " << e.what();
    }
  }
  // Sanity on the harness itself: a matrix where no flip was ever
  // detected means the probe isn't actually validating anything.
  EXPECT_GT(damaged_detected, 0) << "no corruption detected for " << scratch;

  const std::size_t cuts[] = {0,
                              1,
                              7,
                              original.size() / 4,
                              original.size() / 2,
                              original.size() - 17 % original.size(),
                              original.size() - 1};
  for (const std::size_t len : cuts) {
    if (len >= original.size()) continue;
    std::vector<std::uint8_t> bytes(original.begin(),
                                    original.begin() + len);
    spit(scratch, bytes);
    try {
      probe(scratch);  // e.g. a torn container tail is recoverable
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(scratch), std::string::npos)
          << "truncation to " << len
          << " produced an error that does not name the file: " << e.what();
    }
  }
  std::remove(scratch.c_str());
}

Config small_config(std::uint64_t seed) {
  Config c;
  c.scenario.num_sensors = 6;
  c.scenario.num_sinks = 1;
  c.scenario.field_m = 100.0;
  c.scenario.duration_s = 600.0;
  c.scenario.speed_max_mps = 4.0;
  c.scenario.seed = seed;
  return c;
}

/// One interrupted supervised mini-sweep produces the natural artifacts:
/// a container holding real checkpoint payloads and a manifest with
/// in-flight state. (A completed sweep erases its entries.)
struct SweepArtifacts {
  explicit SweepArtifacts(const std::string& dir) {
    std::vector<RunSpec> specs(2);
    specs[0].config = small_config(11);
    specs[1].config = small_config(12);
    SupervisorOptions opts;
    opts.checkpoint_dir = dir;
    opts.checkpoint_every_s = 100.0;
    opts.retry_backoff_s = 0.0;
    opts.stop_after_checkpoints = 1;  // interrupt: keeps entries live
    manifest = run_specs_supervised(specs, opts);
  }
  SweepManifest manifest;
};

TEST(CorruptionFuzz, CheckpointContainerAndPayloads) {
  TempDir dir("fuzz_container.tmp");
  SweepArtifacts made(dir.path);
  const std::string cpath = checkpoint_container_path(dir.path);
  const auto original = slurp(cpath);
  ASSERT_FALSE(snapshot::container_scan(cpath).entries.empty());

  fuzz_file(original, dir.path + "/fuzzed.dcc", [](const std::string& p) {
    // Scan, then decode every surviving payload the way resume would:
    // container_get re-validates the record digest, read_checkpoint_meta
    // validates the checkpoint's own seal. A payload-level error is
    // re-thrown naming the file, mirroring the production call sites.
    const auto scan = snapshot::container_scan(p);
    for (const auto& e : scan.entries) {
      const auto payload = snapshot::container_get(p, e.spec);
      if (!payload) continue;
      try {
        read_checkpoint_meta(*payload);
      } catch (const std::exception& ex) {
        throw snapshot::SnapshotError("checkpoint in " + p + ": " +
                                      ex.what());
      }
    }
  });
}

TEST(CorruptionFuzz, Manifest) {
  TempDir dir("fuzz_manifest.tmp");
  SweepArtifacts made(dir.path);
  const auto original = slurp(manifest_path(dir.path));

  fuzz_file(original, dir.path + "/fuzzed_manifest.txt",
            [](const std::string& p) {
              SweepManifest m;
              load_manifest(p, &m);
            });
}

TEST(CorruptionFuzz, DispatchFrames) {
  TempDir dir("fuzz_frames.tmp");

  // A realistic dispatch stream: every frame type in conversation order,
  // the grant carrying a real request (config, checkpoint path and
  // period) and the result a real result, so flips land in their fields.
  WorkerRequest req;
  req.config = small_config(31);
  req.attempt = 1;
  req.spec = 2;
  req.checkpoint_path = dir.path + "/checkpoints.dcc";
  req.checkpoint_every_s = 100.0;
  WorkerResult res;
  res.ok = true;
  res.result.delivery_ratio = 0.25;
  res.result.generated = 8;
  res.result.delivered = 2;
  res.checkpoints_written = 2;

  std::vector<std::uint8_t> stream;
  for (const auto& frame :
       {encode_hello_frame("fuzz-worker"), encode_request_frame(),
        encode_grant_frame(1.5, req), encode_heartbeat_frame(2, 99, 0),
        encode_result_frame(2, 1, res),
        encode_nowork_frame(true)})
    stream.insert(stream.end(), frame.begin(), frame.end());

  // The probe replays the dispatcher's receive loop: extract greedily,
  // stop on an incomplete tail (a live stream would wait for more
  // bytes). Damage must throw naming the context — the event loops drop
  // the connection on that, never crash, never accept a torn frame.
  fuzz_file(stream, dir.path + "/fuzzed.frames", [](const std::string& p) {
    const auto bytes = slurp(p);
    std::size_t off = 0;
    while (off < bytes.size()) {
      WireFrame f;
      const std::size_t used =
          try_extract_frame(bytes.data() + off, bytes.size() - off, p, &f);
      if (used == 0) break;
      off += used;
    }
  });
}

TEST(CorruptionFuzz, MotionTrace) {
  TempDir dir("fuzz_trace.tmp");
  MotionTrace trace;
  trace.tracks.resize(3);
  for (std::size_t n = 0; n < trace.tracks.size(); ++n)
    for (int i = 0; i < 20; ++i)
      trace.tracks[n].push_back(
          {i * 0.5, {static_cast<double>(n + i), static_cast<double>(i)}});
  save_motion_trace(dir.path + "/t.trc", trace);

  fuzz_file(slurp(dir.path + "/t.trc"), dir.path + "/fuzzed.trc",
            [](const std::string& p) { load_motion_trace(p); });
}

}  // namespace
}  // namespace dftmsn
