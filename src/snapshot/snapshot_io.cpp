#include "snapshot/snapshot_io.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "snapshot/io_env.hpp"

namespace dftmsn::snapshot {

SnapshotMismatch::SnapshotMismatch(const std::string& section,
                                   const std::string& detail)
    : std::runtime_error("snapshot: state mismatch in section '" + section +
                         "': " + detail),
      section(section) {}

void StateHash::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

// --- Writer -----------------------------------------------------------

void Writer::raw(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

// All integers are written little-endian byte by byte so snapshots are
// host-endianness independent.
void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& v) {
  size(v.size());
  raw(v.data(), v.size());
}

void Writer::begin_section(const std::string& name) {
  str(name);
  open_.push_back(buf_.size());
  u64(0);  // length placeholder, patched by end_section
}

void Writer::end_section() {
  if (open_.empty()) throw SnapshotError("end_section without begin_section");
  const std::size_t at = open_.back();
  open_.pop_back();
  const std::uint64_t len = buf_.size() - (at + 8);
  for (int i = 0; i < 8; ++i)
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
}

const std::vector<std::uint8_t>& Writer::bytes() const {
  if (!open_.empty()) throw SnapshotError("unclosed section in writer");
  return buf_;
}

std::uint64_t Writer::digest() const {
  StateHash h;
  const auto& b = bytes();
  h.update(b.data(), b.size());
  return h.value();
}

// --- Reader -----------------------------------------------------------

Reader::Reader(std::vector<std::uint8_t> bytes) : buf_(std::move(bytes)) {}

void Reader::raw(void* out, std::size_t len) {
  if (pos_ + len > buf_.size()) throw SnapshotError("truncated snapshot");
  if (!limits_.empty() && pos_ + len > limits_.back())
    throw SnapshotError("read past section end");
  std::memcpy(out, buf_.data() + pos_, len);
  pos_ += len;
}

std::uint8_t Reader::u8() {
  std::uint8_t v = 0;
  raw(&v, 1);
  return v;
}

std::uint32_t Reader::u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::boolean() { return u8() != 0; }

std::size_t Reader::size() {
  const std::uint64_t v = u64();
  if (v > buf_.size()) throw SnapshotError("implausible size field");
  return static_cast<std::size_t>(v);
}

std::string Reader::str() {
  const std::size_t n = size();
  std::string out(n, '\0');
  raw(out.data(), n);
  return out;
}

void Reader::begin_section(const std::string& name) {
  const std::string found = str();
  if (found != name)
    throw SnapshotError("expected section '" + name + "', found '" + found +
                        "'");
  const std::uint64_t len = u64();
  if (pos_ + len > buf_.size())
    throw SnapshotError("section '" + name + "' overruns the buffer");
  limits_.push_back(pos_ + static_cast<std::size_t>(len));
}

void Reader::end_section() {
  if (limits_.empty()) throw SnapshotError("end_section without begin_section");
  if (pos_ != limits_.back())
    throw SnapshotError("section not fully consumed (" +
                        std::to_string(limits_.back() - pos_) +
                        " bytes left)");
  limits_.pop_back();
}

// --- buffer diagnostics ----------------------------------------------

std::vector<std::string> top_level_sections(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::string> names;
  Reader r(bytes);
  while (!r.at_end()) {
    // Each top-level item is str(name) + u64(len) + payload.
    names.push_back(r.str());
    const std::uint64_t len = r.u64();
    for (std::uint64_t i = 0; i < len; ++i) (void)r.u8();
  }
  return names;
}

void require_identical(const std::vector<std::uint8_t>& expected,
                       const std::vector<std::uint8_t>& actual) {
  if (expected == actual) return;
  // Locate the first diverging top-level section for the error message.
  Reader re(expected);
  Reader ra(actual);
  while (!re.at_end() && !ra.at_end()) {
    const std::string ne = re.str();
    const std::string na = ra.str();
    if (ne != na)
      throw SnapshotMismatch(ne, "section order diverged (found '" + na + "')");
    const std::uint64_t le = re.u64();
    const std::uint64_t la = ra.u64();
    std::size_t diff_at = 0;
    bool differs = le != la;
    const std::uint64_t common = le < la ? le : la;
    for (std::uint64_t i = 0; i < common; ++i) {
      const std::uint8_t be = re.u8();
      const std::uint8_t ba = ra.u8();
      if (!differs && be != ba) {
        differs = true;
        diff_at = static_cast<std::size_t>(i);
      }
    }
    for (std::uint64_t i = common; i < le; ++i) (void)re.u8();
    for (std::uint64_t i = common; i < la; ++i) (void)ra.u8();
    if (differs)
      throw SnapshotMismatch(
          ne, le != la
                  ? "section size changed (" + std::to_string(le) + " vs " +
                        std::to_string(la) + " bytes)"
                  : "first differing byte at offset " + std::to_string(diff_at));
  }
  throw SnapshotMismatch("<trailer>", "buffers differ in section count");
}

// --- files ------------------------------------------------------------

void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  // Durability (fsync before rename, parent-dir fsync after) and fault
  // injection both live in the IoEnv layer; every persistence path that
  // calls this inherits them.
  IoEnv::instance().write_file_atomic_durable(path, bytes);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw SnapshotError("cannot open " + path);
  const std::streamsize n = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
  in.read(reinterpret_cast<char*>(bytes.data()), n);
  if (!in) throw SnapshotError("short read from " + path);
  return bytes;
}

}  // namespace dftmsn::snapshot
