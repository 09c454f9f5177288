// The indexed checkpoint container ("DFTMSNCC" v1): put/get/erase
// semantics, index-authoritative liveness, torn-tail recovery, repair,
// compaction, and rejection of foreign files — plus the crash-tolerance
// contract, exercised by injecting crashes at every container write
// boundary and requiring the previous generation to survive.
#include "snapshot/ckpt_container.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "snapshot/io_env.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn::snapshot {
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

struct EnvGuard {
  EnvGuard() { IoEnv::instance().reset(); }
  ~EnvGuard() { IoEnv::instance().reset(); }
};

std::vector<std::uint8_t> payload(std::uint64_t spec, std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < len; ++i)
    p[i] = static_cast<std::uint8_t>((spec * 131 + i * 7) & 0xff);
  return p;
}

void append_garbage(const std::string& path, std::size_t n) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  for (std::size_t i = 0; i < n; ++i) f.put(static_cast<char>(0x5a));
}

TEST(CkptContainer, MissingFileScansEmptyAndGetsNullopt) {
  TempDir dir("cc_missing.tmp");
  const std::string path = dir.path + "/c.dcc";
  const ContainerScanResult s = container_scan(path);
  EXPECT_FALSE(s.exists);
  EXPECT_TRUE(s.entries.empty());
  EXPECT_FALSE(container_get(path, 0).has_value());
  EXPECT_NO_THROW(container_erase(path, 0));
  EXPECT_FALSE(container_repair(path));
}

TEST(CkptContainer, PutGetRoundTripAcrossSpecs) {
  TempDir dir("cc_roundtrip.tmp");
  const std::string path = dir.path + "/c.dcc";
  for (std::uint64_t spec : {3u, 0u, 7u})
    container_put(path, spec, payload(spec, 100 + spec));

  const ContainerScanResult s = container_scan(path);
  EXPECT_TRUE(s.exists);
  EXPECT_TRUE(s.clean);
  ASSERT_EQ(s.entries.size(), 3u);
  // Entries come back sorted by spec regardless of insertion order.
  EXPECT_EQ(s.entries[0].spec, 0u);
  EXPECT_EQ(s.entries[1].spec, 3u);
  EXPECT_EQ(s.entries[2].spec, 7u);

  for (std::uint64_t spec : {0u, 3u, 7u}) {
    const auto got = container_get(path, spec);
    ASSERT_TRUE(got.has_value()) << "spec " << spec;
    EXPECT_EQ(*got, payload(spec, 100 + spec));
  }
  EXPECT_FALSE(container_get(path, 99).has_value());
}

TEST(CkptContainer, PutSupersedesAndLeavesDeadBytes) {
  TempDir dir("cc_supersede.tmp");
  const std::string path = dir.path + "/c.dcc";
  container_put(path, 5, payload(1, 64));
  container_put(path, 5, payload(2, 64));
  container_put(path, 5, payload(3, 64));

  EXPECT_EQ(*container_get(path, 5), payload(3, 64));
  const ContainerScanResult s = container_scan(path);
  ASSERT_EQ(s.entries.size(), 1u);
  // Two superseded generations stay behind as dead records.
  EXPECT_GT(s.dead_bytes, 2 * 64u);
}

TEST(CkptContainer, EraseIsIndexAuthoritative) {
  TempDir dir("cc_erase.tmp");
  const std::string path = dir.path + "/c.dcc";
  container_put(path, 1, payload(1, 50));
  container_put(path, 2, payload(2, 50));
  container_erase(path, 1);

  // The erased record's bytes are still in the file, but the index — the
  // authority on liveness — no longer lists it, and the container is
  // still clean. (A record-scan that "resurrected" erased entries would
  // break resume: a completed spec would be re-adopted.)
  const ContainerScanResult s = container_scan(path);
  EXPECT_TRUE(s.clean);
  ASSERT_EQ(s.entries.size(), 1u);
  EXPECT_EQ(s.entries[0].spec, 2u);
  EXPECT_GT(s.dead_bytes, 0u);
  EXPECT_FALSE(container_get(path, 1).has_value());
  EXPECT_TRUE(container_get(path, 2).has_value());
}

TEST(CkptContainer, TornTailRecoversEveryIntactEntry) {
  TempDir dir("cc_torn.tmp");
  const std::string path = dir.path + "/c.dcc";
  container_put(path, 1, payload(1, 80));
  container_put(path, 2, payload(2, 80));
  append_garbage(path, 37);  // torn append: bytes past the footer

  ContainerScanResult s = container_scan(path);
  EXPECT_FALSE(s.clean);
  ASSERT_EQ(s.entries.size(), 2u);  // recovery scan still finds both
  EXPECT_EQ(*container_get(path, 1), payload(1, 80));

  EXPECT_TRUE(container_repair(path));
  s = container_scan(path);
  EXPECT_TRUE(s.clean);
  EXPECT_EQ(s.entries.size(), 2u);
  EXPECT_FALSE(container_repair(path));  // already clean: no-op
}

TEST(CkptContainer, TruncatedTailFallsBackToLastGoodGeneration) {
  TempDir dir("cc_trunc.tmp");
  const std::string path = dir.path + "/c.dcc";
  container_put(path, 1, payload(1, 80));
  const auto size_after_first = fs::file_size(path);
  container_put(path, 1, payload(2, 80));

  // Tear the file mid-way through the second generation's record: the
  // recovery scan must fall back to generation 1, not fail.
  fs::resize_file(path, size_after_first + 10);
  const ContainerScanResult s = container_scan(path);
  EXPECT_FALSE(s.clean);
  ASSERT_EQ(s.entries.size(), 1u);
  EXPECT_EQ(*container_get(path, 1), payload(1, 80));

  // And a fresh put on the torn file heals it in passing.
  container_put(path, 1, payload(3, 80));
  EXPECT_TRUE(container_scan(path).clean);
  EXPECT_EQ(*container_get(path, 1), payload(3, 80));
}

TEST(CkptContainer, ShortHeaderIsRecoverableNotFatal) {
  TempDir dir("cc_shorthdr.tmp");
  const std::string path = dir.path + "/c.dcc";
  // A crash during the very first header write leaves < 12 bytes; that
  // must scan as recoverable-empty (and put must heal it), because no
  // data can have been lost.
  std::ofstream(path, std::ios::binary) << "DFTM";
  const ContainerScanResult s = container_scan(path);
  EXPECT_TRUE(s.exists);
  EXPECT_FALSE(s.clean);
  EXPECT_TRUE(s.entries.empty());

  container_put(path, 0, payload(0, 40));
  EXPECT_TRUE(container_scan(path).clean);
}

TEST(CkptContainer, ForeignFileIsRejectedNamingThePath) {
  TempDir dir("cc_foreign.tmp");
  const std::string path = dir.path + "/c.dcc";
  std::ofstream(path, std::ios::binary) << "this is not a container file";
  try {
    container_scan(path);
    FAIL() << "foreign file accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(CkptContainer, CompactionDropsDeadBytesAndKeepsEveryEntry) {
  TempDir dir("cc_compact.tmp");
  const std::string path = dir.path + "/c.dcc";
  for (int gen = 0; gen < 6; ++gen)
    for (std::uint64_t spec : {1u, 2u, 3u})
      container_put(path, spec, payload(spec * 10 + gen, 200));
  container_erase(path, 3);

  const auto before = fs::file_size(path);
  container_compact(path);
  const ContainerScanResult s = container_scan(path);
  EXPECT_TRUE(s.clean);
  EXPECT_EQ(s.dead_bytes, 0u);
  EXPECT_LT(fs::file_size(path), before);
  ASSERT_EQ(s.entries.size(), 2u);
  EXPECT_EQ(*container_get(path, 1), payload(15, 200));
  EXPECT_EQ(*container_get(path, 2), payload(25, 200));
  EXPECT_FALSE(container_get(path, 3).has_value());
}

TEST(CkptContainer, CrashAtEveryWriteBoundaryNeverLosesThePreviousPut) {
  EnvGuard guard;
  TempDir dir("cc_crashmatrix.tmp");
  IoEnv& io = IoEnv::instance();

  // For every op x occurrence boundary inside a container_put: seed the
  // container with generation 1, inject one crash, attempt generation 2.
  // Whatever state the crash left, a recovery scan must still produce an
  // intact checkpoint for the spec — generation 2 if the put got far
  // enough, generation 1 otherwise. Iterate occurrences until the fault
  // no longer fires (the put ran clean), so no boundary is skipped.
  for (const char* op : {"open", "write", "fsync", "rename", "fsyncdir"}) {
    for (std::uint64_t nth = 1; nth <= 32; ++nth) {
      const std::string path = dir.path + "/c_" + op + "_" +
                               std::to_string(nth) + ".dcc";
      io.reset();
      container_put(path, 7, payload(1, 120));

      io.set_schedule_spec(std::string("crash@") + op + "#" +
                           std::to_string(nth));
      bool crashed = false;
      try {
        container_put(path, 7, payload(2, 120));
      } catch (const InjectedCrash&) {
        crashed = true;
      }
      io.reset();

      const auto got = container_get(path, 7);
      ASSERT_TRUE(got.has_value())
          << "crash@" << op << "#" << nth << " lost every generation";
      EXPECT_TRUE(*got == payload(1, 120) || *got == payload(2, 120))
          << "crash@" << op << "#" << nth << " surfaced garbage";
      if (!crashed) {
        // Fault never fired: the put has fewer than nth of this op.
        // Everything before this boundary was covered; move on.
        EXPECT_EQ(*got, payload(2, 120));
        break;
      }
      // Repair must always bring a crashed file back to clean.
      container_repair(path);
      EXPECT_TRUE(container_scan(path).clean)
          << "crash@" << op << "#" << nth;
    }
  }
}

TEST(CkptContainer, CrashInsideACompactingPutKeepsEveryLastGeneration) {
  EnvGuard guard;
  TempDir dir("cc_compactcrash.tmp");
  IoEnv& io = IoEnv::instance();

  // Two specs at ~128 KiB per record. After A1 B1 A2 B2 A3 the dead
  // records (A1 B1 A2) pass both the 256 KiB floor and the live size
  // (A3 B2), so the put of B3 compacts in place before it appends.
  constexpr std::size_t kLen = 128 * 1024;
  constexpr std::uint64_t kA = 1, kB = 2;
  const std::string seed = dir.path + "/seed.dcc";
  for (std::uint64_t gen = 1; gen <= 2; ++gen) {
    container_put(seed, kA, payload(kA * 10 + gen, kLen));
    container_put(seed, kB, payload(kB * 10 + gen, kLen));
  }
  container_put(seed, kA, payload(kA * 10 + 3, kLen));
  const ContainerScanResult before = container_scan(seed);
  ASSERT_GT(before.dead_bytes, 256u * 1024u);

  {
    // Without a fault the put compacts: three dead records go, B2 alone
    // is left dead, so the file shrinks even though a record was added.
    const std::string path = dir.path + "/clean.dcc";
    fs::copy_file(seed, path);
    container_put(path, kB, payload(kB * 10 + 3, kLen));
    EXPECT_LT(fs::file_size(path), fs::file_size(seed));
    const ContainerScanResult after = container_scan(path);
    EXPECT_TRUE(after.clean);
    EXPECT_LT(after.dead_bytes, before.dead_bytes / 2);
  }

  // Crash before and after every op occurrence of that put (the
  // compaction's tmp write, fsync, rename and directory fsync, then the
  // append) until the fault no longer fires. A's last generation and B's
  // last or new one must survive, and repair must reach a clean scan.
  for (const char* kind : {"crash", "crash-after"}) {
    for (const char* op : {"open", "write", "fsync", "rename", "fsyncdir"}) {
      for (std::uint64_t nth = 1; nth <= 32; ++nth) {
        const std::string point =
            std::string(kind) + "@" + op + "#" + std::to_string(nth);
        const std::string path = dir.path + "/c_" + kind + "_" + op + "_" +
                                 std::to_string(nth) + ".dcc";
        io.reset();
        fs::copy_file(seed, path);
        io.set_schedule_spec(point);
        bool crashed = false;
        try {
          container_put(path, kB, payload(kB * 10 + 3, kLen));
        } catch (const InjectedCrash&) {
          crashed = true;
        }
        io.reset();

        const auto a = container_get(path, kA);
        const auto b = container_get(path, kB);
        ASSERT_TRUE(a.has_value()) << point << " lost spec A";
        ASSERT_TRUE(b.has_value()) << point << " lost spec B";
        EXPECT_EQ(*a, payload(kA * 10 + 3, kLen)) << point;
        EXPECT_TRUE(*b == payload(kB * 10 + 2, kLen) ||
                    *b == payload(kB * 10 + 3, kLen))
            << point << " surfaced garbage";
        if (!crashed) {
          EXPECT_EQ(*b, payload(kB * 10 + 3, kLen)) << point;
          break;
        }
        container_repair(path);
        EXPECT_TRUE(container_scan(path).clean) << point;
        EXPECT_EQ(*container_get(path, kA), *a) << point;
        EXPECT_EQ(*container_get(path, kB), *b) << point;
      }
    }
  }
}

}  // namespace
}  // namespace dftmsn::snapshot
