#include "experiment/fsck.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <stdexcept>

#include "experiment/supervisor.hpp"
#include "mobility/motion_trace.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"

namespace dftmsn {
namespace {

namespace fs = std::filesystem;

void note(FsckReport& rep, std::ostream& log, const std::string& path,
          const std::string& cls, const std::string& detail,
          bool repaired = false) {
  rep.findings.push_back({path, cls, detail, repaired});
  if (repaired) rep.repaired = true;
  log << "fsck: " << cls << " " << path;
  if (!detail.empty()) log << " (" << detail << ")";
  log << "\n";
}

/// Deletes a file whose loss is safe (trace/tmp artifacts are all
/// regenerated); reports whether the unlink took.
bool drop(const std::string& path) {
  return std::remove(path.c_str()) == 0;
}

void check_container(const std::string& path, const SweepManifest* manifest,
                     bool have_manifest, FsckReport& rep, std::ostream& log) {
  namespace sn = dftmsn::snapshot;
  sn::ContainerScanResult scan;
  try {
    scan = sn::container_scan(path);
  } catch (const std::exception& e) {
    // Foreign magic / unsupported version: repair would destroy data
    // this build doesn't understand.
    note(rep, log, path, "corrupt", e.what());
    rep.unrepairable = true;
    return;
  }
  if (!scan.exists) return;

  if (!scan.clean) {
    const std::uint64_t torn = scan.file_size - scan.valid_end;
    try {
      sn::container_repair(path);
      note(rep, log, path, "torn",
           "truncated " + std::to_string(torn) +
               " torn tail bytes, rebuilt index (" +
               std::to_string(scan.entries.size()) + " entries survive)",
           /*repaired=*/true);
    } catch (const std::exception& e) {
      note(rep, log, path, "torn", std::string("repair failed: ") + e.what());
      rep.unrepairable = true;
      return;
    }
  }

  // Entry-level validation: each surviving checkpoint must decode (its
  // own magic/version/digest) and, when a manifest names this sweep,
  // belong to it. Anything else is dropped — the spec re-runs.
  for (const sn::ContainerEntry& e : scan.entries) {
    const std::string what = path + " entry spec " + std::to_string(e.spec);
    std::string cls, detail;
    try {
      const auto payload = sn::container_get(path, e.spec);
      if (!payload) continue;  // lost with the torn tail; already reported
      const CheckpointMeta meta = read_checkpoint_meta(*payload);
      if (have_manifest) {
        if (e.spec >= manifest->specs.size()) {
          cls = "stale";
          detail = "spec index beyond manifest";
        } else if (meta.config_digest !=
                   manifest->specs[e.spec].config_digest) {
          cls = "stale";
          detail = "checkpoint config digest does not match manifest";
        }
      }
    } catch (const std::exception& ex) {
      cls = "corrupt";
      detail = ex.what();
    }
    if (cls.empty()) {
      note(rep, log, what, "valid", "");
      continue;
    }
    try {
      sn::container_erase(path, e.spec);
      note(rep, log, what, cls, detail + "; entry dropped, spec will re-run",
           /*repaired=*/true);
    } catch (const std::exception& ex) {
      note(rep, log, what, cls, detail + "; drop failed: " + ex.what());
      rep.unrepairable = true;
    }
  }
}

}  // namespace

FsckReport run_fsck(const std::string& dir, std::ostream& log) {
  FsckReport rep;
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    throw std::runtime_error("fsck: " + dir + " is not a directory");

  // Manifest first: its verdict feeds the container's staleness check.
  SweepManifest manifest;
  bool have_manifest = false;
  const std::string mpath = manifest_path(dir);
  if (fs::exists(mpath, ec)) {
    try {
      have_manifest = load_manifest(mpath, &manifest);
      if (have_manifest) note(rep, log, mpath, "valid", "");
    } catch (const std::exception& e) {
      // A streamed manifest killed mid-append has a torn tail; cutting
      // it back to the last validating cumulative digest line loses only
      // the block being appended (those specs simply re-run on resume).
      bool salvaged = false;
      std::size_t removed = 0;
      try {
        salvaged = salvage_manifest_tail(mpath, &removed) && removed > 0 &&
                   load_manifest(mpath, &manifest);
      } catch (const std::exception&) {
        salvaged = false;
      }
      if (salvaged) {
        have_manifest = true;
        note(rep, log, mpath, "torn",
             "truncated " + std::to_string(removed) +
                 " torn tail bytes back to the last validating digest line",
             /*repaired=*/true);
      } else {
        // Interior damage. The manifest is the only file holding
        // completed results; fsck never deletes it on its own.
        note(rep, log, mpath, "corrupt",
             std::string(e.what()) +
                 "; holds completed results, not auto-deleted — delete it "
                 "and re-run the sweep to rebuild");
        rep.unrepairable = true;
      }
    }
  }

  check_container(checkpoint_container_path(dir), &manifest, have_manifest,
                  rep, log);

  // Motion traces and rename-staging leftovers. Both are regenerated by
  // the next run, so "repair" for a bad one is deletion.
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());  // deterministic report order

  for (const fs::path& p : paths) {
    const std::string path = p.string();
    const std::string ext = p.extension().string();
    std::string cls, detail;
    if (ext == ".tmp") {
      cls = "leftover";
      detail = "interrupted atomic-write staging file";
    } else if (ext == ".trc") {
      try {
        load_motion_trace(path);
        note(rep, log, path, "valid", "");
        continue;
      } catch (const std::exception& e) {
        cls = "corrupt";
        detail = e.what();
      }
    } else {
      continue;  // not a file kind this machinery owns
    }
    if (drop(path)) {
      note(rep, log, path, cls, detail + "; deleted (regenerated on next run)",
           /*repaired=*/true);
    } else {
      note(rep, log, path, cls, detail + "; delete failed");
      rep.unrepairable = true;
    }
  }

  log << "fsck: " << dir << ": "
      << (rep.unrepairable
              ? "unrepairable damage remains"
              : (rep.repaired ? "repaired" : "clean"))
      << "\n";
  return rep;
}

}  // namespace dftmsn
