// Injectable I/O environment: every durable-state write in the system
// (checkpoint container appends, sweep manifests, motion traces, JSON
// reports) goes through this layer instead of calling the filesystem
// directly.
//
// Two jobs:
//
//  1. Correct durability. The atomic-write protocol is
//         write tmp -> fsync tmp -> rename over target -> fsync parent dir
//     with the leftover `.tmp` unlinked on any failure. Plain
//     tmp+rename (the pre-hardening behaviour) survives a process crash
//     but not a power loss: without the fsyncs the rename can reach disk
//     before the data does, leaving a *named* file full of garbage.
//
//  2. Deterministic fault injection. A scripted schedule can fail the
//     Nth occurrence of any primitive (ENOSPC/EIO), tear a write after K
//     bytes, or "crash" the process at a chosen boundary (before/after a
//     write, fsync or rename) — so recovery code is tested against the
//     exact torn states a real crash can produce, reproducibly. See
//     docs/durability.md for the schedule grammar.
//
// The environment is process-global (IoEnv::instance()): persistence
// call sites stay free of plumbing, and a spawned worker process arms
// its own schedule from the DFTMSN_IO_FAULTS environment variable it
// inherits from the parent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace dftmsn::snapshot {

/// Exit code a scripted crash-point terminates the process with (exit
/// mode; see IoEnv::set_crash_exits). Distinct from every code in the
/// CLI/worker contract so harnesses can tell "died at the scheduled
/// boundary" from any real outcome.
inline constexpr int kInjectedCrashExit = 9;

/// A scripted crash-point fired in throw mode. Deliberately NOT derived
/// from SnapshotError: production retry paths catch std::exception, so
/// unit tests that want a crash to stop a persistence call mid-protocol
/// must catch this type explicitly at the top of the simulated "boot".
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& where)
      : std::runtime_error("injected crash at " + where) {}
};

/// The injectable primitives, in the order write_file_atomic uses them.
enum class IoOp : std::uint8_t {
  kOpen,      ///< open/create of a file opened for writing
  kWrite,     ///< one logical buffer write (whole file or one record)
  kFsync,     ///< fsync of a data file
  kRename,    ///< rename(tmp, target)
  kFsyncDir,  ///< fsync of the parent directory
};
const char* io_op_name(IoOp op);
inline constexpr std::size_t kIoOpCount = 5;

/// Which process a fault arms in (an --isolate=process sweep shares one
/// schedule string between the parent and every worker it spawns).
enum class IoScope : std::uint8_t { kAny, kParent, kWorker };

struct IoFault {
  enum class Kind : std::uint8_t {
    kEnospc,      ///< the op fails, message says ENOSPC
    kEio,         ///< the op fails, message says EIO
    kShortWrite,  ///< writes `bytes` bytes, then fails (kWrite only)
    kCrash,       ///< crash before the op (after `bytes` bytes for kWrite)
    kCrashAfter,  ///< crash after the op completed
  };
  Kind kind = Kind::kEio;
  IoOp op = IoOp::kWrite;
  std::uint64_t nth = 1;       ///< fires on the nth occurrence (1-based)
  std::uint64_t bytes = 0;     ///< short-write / torn-crash prefix length
  IoScope scope = IoScope::kAny;
  bool fired = false;          ///< each fault fires at most once
};

/// Parses the fault-schedule grammar; throws std::runtime_error naming
/// the offending token. Empty string -> empty schedule.
///   schedule := fault (';' fault)*
///   fault    := kind '@' op '#' N (':' arg (',' arg)*)?
///   kind     := enospc | eio | short | crash | crash-after
///   op       := open | write | fsync | rename | fsyncdir
///   arg      := bytes=K | scope=(any|parent|worker)
std::vector<IoFault> parse_io_fault_schedule(const std::string& spec);

class IoEnv {
 public:
  /// The process-wide environment all persistence call sites use.
  static IoEnv& instance();

  /// Replaces the schedule and zeroes all op counters.
  void set_schedule(std::vector<IoFault> faults);
  /// parse + set; throws on a malformed spec.
  void set_schedule_spec(const std::string& spec);
  /// Drops the schedule and zeroes counters (tests; default state).
  void reset();

  /// Crash faults terminate with _exit(kInjectedCrashExit) instead of
  /// throwing InjectedCrash. The CLI turns this on: an exiting process
  /// is the honest simulation of power loss (no unwinding, no cleanup).
  void set_crash_exits(bool on) { crash_exits_ = on; }
  /// This process's side of the parent/worker split (scope= filtering).
  void set_scope(IoScope s) { scope_ = s; }

  [[nodiscard]] std::uint64_t op_count(IoOp op) const;
  [[nodiscard]] bool armed() const;

  // --- durable file primitives (fault-injected) ------------------------
  // All throw SnapshotError with the path in the message on failure
  // (real or injected), except crash faults (InjectedCrash / _exit).

  /// The atomic+durable write protocol described above.
  void write_file_atomic_durable(const std::string& path,
                                 const std::vector<std::uint8_t>& bytes);

  /// open(2) for read/write, creating if absent. Returns the fd.
  int open_rw(const std::string& path);
  /// pwrite(2) the whole buffer at `offset` (EINTR/partial-safe).
  void pwrite_all(int fd, const std::string& path, const void* data,
                  std::size_t len, std::uint64_t offset);
  void fsync_file(int fd, const std::string& path);
  void ftruncate_file(int fd, const std::string& path, std::uint64_t len);
  void rename_file(const std::string& from, const std::string& to);
  /// fsync of `path`'s parent directory (directory entry durability).
  void fsync_parent_dir(const std::string& path);

 private:
  IoEnv() = default;

  /// What bump() found armed for this occurrence of an op.
  struct Fired {
    bool hit = false;
    IoFault::Kind kind = IoFault::Kind::kEio;
    std::uint64_t nth = 0;
    std::uint64_t bytes = 0;
  };
  /// Advances the op counter (unless `after`) and returns the matching
  /// unfired fault, if any. `after` re-checks the same occurrence for
  /// crash-after faults once the op itself has succeeded.
  Fired bump(IoOp op, bool after);
  /// bump(after) + crash if a crash-after fault fired.
  void after_op(IoOp op, const std::string& path);
  [[noreturn]] void crash(const std::string& where);

  mutable std::mutex mu_;
  std::vector<IoFault> faults_;
  std::uint64_t counts_[kIoOpCount] = {0, 0, 0, 0, 0};
  bool crash_exits_ = false;
  IoScope scope_ = IoScope::kParent;
};

}  // namespace dftmsn::snapshot
