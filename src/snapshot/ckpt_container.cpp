#include "snapshot/ckpt_container.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include "snapshot/io_env.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn::snapshot {
namespace {

constexpr char kMagic[8] = {'D', 'F', 'T', 'M', 'S', 'N', 'C', 'C'};
constexpr char kFooterMagic[8] = {'D', 'F', 'T', 'M', 'S', 'N', 'C', 'F'};
constexpr char kRecMagic[4] = {'R', 'C', '0', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderSize = 12;   // magic + u32 version
constexpr std::uint64_t kRecHeaderSize = 32;  // magic,kind,spec,seq,len
constexpr std::uint64_t kRecOverhead = kRecHeaderSize + 8;  // + digest
constexpr std::uint64_t kFooterSize = 16;   // index offset + magic
constexpr std::uint32_t kKindCheckpoint = 1;
constexpr std::uint32_t kKindIndex = 2;
// Compact when superseded records waste more than both the live data and
// this floor — small containers are never worth rewriting.
constexpr std::uint64_t kCompactMinDeadBytes = 256 * 1024;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw SnapshotError("checkpoint container " + path + ": " + what);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Exclusive advisory lock on `<path>.lock`. flock is per open file
/// description, so two threads of one process exclude each other exactly
/// like two processes do. The lock file is created once and never
/// renamed; compaction can atomically replace the container under it.
class ContainerLock {
 public:
  explicit ContainerLock(const std::string& path) {
    const std::string lock_path = path + ".lock";
    fd_ = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
      fail(path, "cannot open lock file " + lock_path + ": " +
                     std::strerror(errno));
    int rc;
    do {
      rc = ::flock(fd_, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      const int saved = errno;
      ::close(fd_);
      fail(path, "cannot lock " + lock_path + ": " + std::strerror(saved));
    }
  }
  ~ContainerLock() {
    if (fd_ >= 0) ::close(fd_);  // closing drops the flock
  }
  ContainerLock(const ContainerLock&) = delete;
  ContainerLock& operator=(const ContainerLock&) = delete;

 private:
  int fd_ = -1;
};

std::vector<std::uint8_t> read_whole(int fd, const std::string& path) {
  struct stat st{};
  if (::fstat(fd, &st) != 0)
    fail(path, std::string("fstat: ") + std::strerror(errno));
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pread(fd, bytes.data() + done, bytes.size() - done,
                              static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(path, std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) break;  // concurrent truncate: scan whatever we got
    done += static_cast<std::size_t>(n);
  }
  bytes.resize(done);
  return bytes;
}

std::uint64_t record_digest(const std::uint8_t* rec, std::uint64_t len) {
  StateHash h;
  h.update(rec, kRecHeaderSize + len);
  return h.value();
}

/// Everything scan_image recovers beyond the public ContainerScanResult.
struct ScanState {
  ContainerScanResult result;
  bool header_ok = false;  ///< false: rewrite the header before appending
  std::uint64_t data_end = kHeaderSize;  ///< after the last data record
  std::uint64_t next_seq = 1;
  std::uint64_t live_bytes = 0;
};

/// Front-to-back validation of an in-memory image. Never throws for
/// damage a crash can produce: record-level tears stop the scan (the
/// tail counts as torn), and a header shorter than kHeaderSize — a crash
/// inside the very first append — yields an empty recoverable state. A
/// *complete* header with wrong magic/version is a foreign file and
/// throws: stepping over it could destroy data this code doesn't
/// understand.
ScanState scan_image(const std::string& path,
                     const std::vector<std::uint8_t>& image) {
  ScanState s;
  s.result.exists = true;
  s.result.file_size = image.size();
  if (image.size() < kHeaderSize) {
    s.result.valid_end = 0;
    return s;
  }
  if (std::memcmp(image.data(), kMagic, 8) != 0) fail(path, "bad magic");
  if (get_u32(image.data() + 8) != kVersion)
    fail(path, "unsupported version " +
                   std::to_string(get_u32(image.data() + 8)));
  s.header_ok = true;

  // The index is authoritative for liveness when it is intact: an erase
  // drops an entry from the index while the dead record stays behind
  // until compaction. The record-by-record recovery map is the fallback
  // for a torn or index-less file (where a superseded-but-surviving
  // record is legitimately the best available checkpoint).
  std::map<std::uint64_t, ContainerEntry> recovered;   // spec -> latest
  std::map<std::uint64_t, ContainerEntry> by_offset;   // every data record
  std::uint64_t total_data = 0;
  std::uint64_t pos = kHeaderSize;
  std::uint64_t index_offset = 0;
  bool have_index = false;
  bool index_payload_ok = false;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> index_pairs;

  while (pos + kRecOverhead <= image.size()) {
    const std::uint8_t* rec = image.data() + pos;
    if (std::memcmp(rec, kRecMagic, 4) != 0) break;
    const std::uint32_t kind = get_u32(rec + 4);
    if (kind != kKindCheckpoint && kind != kKindIndex) break;
    const std::uint64_t spec = get_u64(rec + 8);
    const std::uint64_t seq = get_u64(rec + 16);
    const std::uint64_t len = get_u64(rec + 24);
    if (len > image.size() - pos - kRecOverhead) break;  // extends past EOF
    if (record_digest(rec, len) != get_u64(rec + kRecHeaderSize + len)) break;

    if (kind == kKindCheckpoint) {
      const ContainerEntry e{spec, seq, pos, len};
      by_offset.emplace(pos, e);
      auto [it, inserted] = recovered.emplace(spec, e);
      if (!inserted && seq >= it->second.seq) it->second = e;
      total_data += kRecOverhead + len;
      s.data_end = pos + kRecOverhead + len;
    } else {
      have_index = true;
      index_offset = pos;
      index_pairs.clear();
      index_payload_ok = false;
      const std::uint8_t* p = rec + kRecHeaderSize;
      if (len >= 8) {
        const std::uint64_t count = get_u64(p);
        if (len == 8 + count * 16) {
          index_payload_ok = true;
          for (std::uint64_t i = 0; i < count; ++i)
            index_pairs.emplace_back(get_u64(p + 8 + i * 16),
                                     get_u64(p + 16 + i * 16));
        }
      }
    }
    if (seq >= s.next_seq) s.next_seq = seq + 1;
    pos += kRecOverhead + len;
  }
  s.result.valid_end = pos;

  // Clean means: the file ends in exactly [index record][footer], the
  // footer points at that index record, and every index entry references
  // an intact record of the right spec.
  s.result.clean = false;
  if (have_index && index_payload_ok && pos + kFooterSize == image.size() &&
      index_offset + kRecOverhead <= pos) {
    const std::uint8_t* footer = image.data() + pos;
    if (get_u64(footer) == index_offset &&
        std::memcmp(footer + 8, kFooterMagic, 8) == 0) {
      bool match = true;
      std::vector<ContainerEntry> from_index;
      for (const auto& [spec, off] : index_pairs) {
        const auto it = by_offset.find(off);
        if (it == by_offset.end() || it->second.spec != spec) {
          match = false;
          break;
        }
        from_index.push_back(it->second);
      }
      if (match) {
        s.result.clean = true;
        s.result.valid_end = image.size();
        s.result.entries = std::move(from_index);
      }
    }
  }
  if (!s.result.clean)
    for (const auto& [spec, e] : recovered) s.result.entries.push_back(e);
  std::sort(s.result.entries.begin(), s.result.entries.end(),
            [](const ContainerEntry& a, const ContainerEntry& b) {
              return a.spec < b.spec;
            });

  for (const ContainerEntry& e : s.result.entries)
    s.live_bytes += kRecOverhead + e.payload_len;
  s.result.dead_bytes = total_data - s.live_bytes;
  return s;
}

std::vector<std::uint8_t> encode_record(std::uint32_t kind,
                                        std::uint64_t spec, std::uint64_t seq,
                                        const std::uint8_t* payload,
                                        std::uint64_t len) {
  std::vector<std::uint8_t> out;
  out.reserve(kRecOverhead + len);
  for (const char c : kRecMagic) out.push_back(static_cast<std::uint8_t>(c));
  put_u32(out, kind);
  put_u64(out, spec);
  put_u64(out, seq);
  put_u64(out, len);
  out.insert(out.end(), payload, payload + len);
  StateHash h;
  h.update(out.data(), out.size());
  put_u64(out, h.value());
  return out;
}

/// index record (listing `entries`, which must be sorted) + footer, laid
/// out to start at `at`.
std::vector<std::uint8_t> encode_index_and_footer(
    const std::vector<ContainerEntry>& entries, std::uint64_t seq,
    std::uint64_t at) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, entries.size());
  for (const ContainerEntry& e : entries) {
    put_u64(payload, e.spec);
    put_u64(payload, e.offset);
  }
  std::vector<std::uint8_t> out =
      encode_record(kKindIndex, 0, seq, payload.data(), payload.size());
  put_u64(out, at);  // footer: offset of the index record we just wrote
  out.insert(out.end(), kFooterMagic, kFooterMagic + 8);
  return out;
}

std::vector<std::uint8_t> header_bytes() {
  std::vector<std::uint8_t> h(kMagic, kMagic + 8);
  put_u32(h, kVersion);
  return h;
}

/// Serializes exactly the live records of `image` into a fresh clean
/// container image (used by compaction).
std::vector<std::uint8_t> compacted_image(
    const ScanState& s, const std::vector<std::uint8_t>& image) {
  std::vector<std::uint8_t> out = header_bytes();
  std::vector<ContainerEntry> moved;
  std::uint64_t seq = 1;
  for (const ContainerEntry& e : s.result.entries) {
    const std::uint8_t* payload =
        image.data() + e.offset + kRecHeaderSize;
    const std::vector<std::uint8_t> rec = encode_record(
        kKindCheckpoint, e.spec, seq, payload, e.payload_len);
    moved.push_back({e.spec, seq, out.size(), e.payload_len});
    out.insert(out.end(), rec.begin(), rec.end());
    ++seq;
  }
  const std::vector<std::uint8_t> tail =
      encode_index_and_footer(moved, seq, out.size());
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

/// Read + scan under the caller's lock; returns the raw image too.
ScanState scan_locked(const std::string& path,
                      std::vector<std::uint8_t>* image_out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return ScanState{};  // exists=false
    fail(path, std::string("open: ") + std::strerror(errno));
  }
  std::vector<std::uint8_t> image;
  try {
    image = read_whole(fd, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  ScanState s = scan_image(path, image);
  if (image_out != nullptr) *image_out = std::move(image);
  return s;
}

/// Writes index + footer at `at`, truncates to the exact end, fsyncs.
/// The caller has already written any data records below `at`.
void finish_tail(IoEnv& io, int fd, const std::string& path,
                 const std::vector<ContainerEntry>& entries,
                 std::uint64_t seq, std::uint64_t at) {
  const std::vector<std::uint8_t> tail =
      encode_index_and_footer(entries, seq, at);
  io.pwrite_all(fd, path, tail.data(), tail.size(), at);
  io.ftruncate_file(fd, path, at + tail.size());
  io.fsync_file(fd, path);
}

}  // namespace

ContainerScanResult container_scan(const std::string& path) {
  ContainerLock lock(path);
  return scan_locked(path, nullptr).result;
}

void container_put(const std::string& path, std::uint64_t spec,
                   const std::vector<std::uint8_t>& payload) {
  ContainerLock lock(path);
  IoEnv& io = IoEnv::instance();
  std::vector<std::uint8_t> image;
  ScanState s = scan_locked(path, &image);

  if (s.result.dead_bytes > kCompactMinDeadBytes &&
      s.result.dead_bytes > s.live_bytes) {
    io.write_file_atomic_durable(path, compacted_image(s, image));
    s = scan_locked(path, &image);
  }

  const int fd = io.open_rw(path);
  try {
    std::uint64_t at = s.data_end;
    if (!s.header_ok) {
      const std::vector<std::uint8_t> h = header_bytes();
      io.pwrite_all(fd, path, h.data(), h.size(), 0);
      at = kHeaderSize;
    }
    const std::uint64_t seq = s.next_seq;
    const std::vector<std::uint8_t> rec = encode_record(
        kKindCheckpoint, spec, seq, payload.data(), payload.size());
    io.pwrite_all(fd, path, rec.data(), rec.size(), at);

    std::vector<ContainerEntry> entries = s.result.entries;
    const ContainerEntry e{spec, seq, at, payload.size()};
    const auto it = std::find_if(
        entries.begin(), entries.end(),
        [&](const ContainerEntry& x) { return x.spec == spec; });
    if (it != entries.end())
      *it = e;
    else
      entries.insert(std::upper_bound(entries.begin(), entries.end(), e,
                                      [](const ContainerEntry& a,
                                         const ContainerEntry& b) {
                                        return a.spec < b.spec;
                                      }),
                     e);
    finish_tail(io, fd, path, entries, seq + 1, at + rec.size());
  } catch (...) {
    ::close(fd);
    throw;  // a torn append is recovered by the next scan
  }
  ::close(fd);
}

std::optional<std::vector<std::uint8_t>> container_get(
    const std::string& path, std::uint64_t spec) {
  ContainerLock lock(path);
  std::vector<std::uint8_t> image;
  const ScanState s = scan_locked(path, &image);
  if (!s.result.exists) return std::nullopt;
  for (const ContainerEntry& e : s.result.entries) {
    if (e.spec != spec) continue;
    const std::uint8_t* payload = image.data() + e.offset + kRecHeaderSize;
    return std::vector<std::uint8_t>(payload, payload + e.payload_len);
  }
  return std::nullopt;
}

void container_erase(const std::string& path, std::uint64_t spec) {
  ContainerLock lock(path);
  const ScanState s = scan_locked(path, nullptr);
  if (!s.result.exists) return;
  const bool present = std::any_of(
      s.result.entries.begin(), s.result.entries.end(),
      [&](const ContainerEntry& e) { return e.spec == spec; });
  if (!present && s.result.clean) return;

  std::vector<ContainerEntry> entries;
  for (const ContainerEntry& e : s.result.entries)
    if (e.spec != spec) entries.push_back(e);

  IoEnv& io = IoEnv::instance();
  const int fd = io.open_rw(path);
  try {
    finish_tail(io, fd, path, entries, s.next_seq, s.data_end);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void container_compact(const std::string& path) {
  ContainerLock lock(path);
  std::vector<std::uint8_t> image;
  const ScanState s = scan_locked(path, &image);
  if (!s.result.exists || (s.result.clean && s.result.dead_bytes == 0))
    return;
  IoEnv::instance().write_file_atomic_durable(path, compacted_image(s, image));
}

bool container_repair(const std::string& path) {
  ContainerLock lock(path);
  const ScanState s = scan_locked(path, nullptr);
  if (!s.result.exists || s.result.clean) return false;

  IoEnv& io = IoEnv::instance();
  const int fd = io.open_rw(path);
  try {
    if (!s.header_ok) {
      const std::vector<std::uint8_t> h = header_bytes();
      io.pwrite_all(fd, path, h.data(), h.size(), 0);
    }
    finish_tail(io, fd, path, s.result.entries, s.next_seq, s.data_end);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return true;
}

}  // namespace dftmsn::snapshot
