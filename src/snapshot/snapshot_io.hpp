// Versioned binary snapshot encoding (checkpoint/resume substrate).
//
// A snapshot is a flat byte buffer of named, length-prefixed sections,
// each holding primitive fields written in a fixed order. The encoding is
// canonical: identical logical state always serializes to identical
// bytes (doubles are written as IEEE-754 bit patterns, unordered
// containers are serialized in sorted key order by their owners), so two
// snapshots can be compared with memcmp and a single FNV-1a digest
// fingerprints the whole simulation state.
//
// Components expose
//     void save_state(snapshot::Writer&) const;
// and, where their state is pure data (no scheduled event context),
//     void load_state(snapshot::Reader&);
// Event-coupled components (the MAC, traffic sources, the event queue
// itself) are save-only: their pending events cannot be re-materialized
// from bytes, so resume re-creates them by deterministic replay and the
// saved bytes serve as the replay-verification oracle (see
// docs/checkpoint_resume.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dftmsn::snapshot {

/// Malformed, truncated, or version-incompatible snapshot bytes.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

/// Replayed state diverged from the state recorded in a checkpoint —
/// either the snapshot is stale (code/config drift) or the simulation is
/// nondeterministic. `section` names the first diverging section.
class SnapshotMismatch : public std::runtime_error {
 public:
  SnapshotMismatch(const std::string& section, const std::string& detail);

  std::string section;
};

/// Incremental FNV-1a 64-bit hash (stable, dependency-free fingerprint).
class StateHash {
 public:
  void update(const void* data, std::size_t len);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

class Writer {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);  ///< exact IEEE-754 bit pattern
  void boolean(bool v);
  void size(std::size_t v);  ///< widened to u64
  void str(const std::string& v);

  /// Opens a named, length-prefixed section; sections nest.
  void begin_section(const std::string& name);
  void end_section();

  /// Finished buffer. All sections must be closed.
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const;

  /// FNV-1a digest of bytes().
  [[nodiscard]] std::uint64_t digest() const;

 private:
  void raw(const void* data, std::size_t len);

  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> open_;  ///< offsets of unpatched section lengths
};

class Reader {
 public:
  explicit Reader(std::vector<std::uint8_t> bytes);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::size_t size();
  [[nodiscard]] std::string str();

  /// Enters the next section, which must carry exactly `name`.
  void begin_section(const std::string& name);
  /// Leaves the current section, which must be fully consumed.
  void end_section();

  [[nodiscard]] bool at_end() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  void raw(void* out, std::size_t len);

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> limits_;  ///< end offsets of open sections
};

/// Lists the top-level section names of a serialized state buffer, in
/// order (diagnostics: locating the first diverging section).
std::vector<std::string> top_level_sections(
    const std::vector<std::uint8_t>& bytes);

/// Compares two state buffers; throws SnapshotMismatch naming the first
/// top-level section whose bytes differ (or a structural difference).
void require_identical(const std::vector<std::uint8_t>& expected,
                       const std::vector<std::uint8_t>& actual);

/// Atomically writes `bytes` to `path` (temp file + rename), so a crash
/// mid-write can never leave a torn checkpoint behind.
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// Reads a whole file; throws SnapshotError if unreadable.
std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace dftmsn::snapshot
