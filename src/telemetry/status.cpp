#include "telemetry/status.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "telemetry/json_value.hpp"
#include "telemetry/json_writer.hpp"

namespace dftmsn::telemetry {
namespace {

/// EMA weight of the newest instantaneous rate sample. 0.25 smooths the
/// sawtooth a checkpoint pause puts into instantaneous throughput while
/// still converging within a handful of samples.
constexpr double kEmaAlpha = 0.25;

/// Prometheus metric names admit [a-zA-Z0-9_:]; registry instrument
/// names use dots (mac.rts_tx), which map to underscores.
std::string prometheus_name(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

void prom_line(std::ostringstream& os, const std::string& name,
               const std::string& labels, const std::string& value) {
  os << name;
  if (!labels.empty()) os << '{' << labels << '}';
  os << ' ' << value << '\n';
}

void prom_header(std::ostringstream& os, const std::string& name,
                 const char* type, const char* help) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

const char* spec_phase_name(SpecPhase p) {
  switch (p) {
    case SpecPhase::kPending: return "pending";
    case SpecPhase::kRunning: return "running";
    case SpecPhase::kCheckpointed: return "checkpointed";
    case SpecPhase::kRetrying: return "retrying";
    case SpecPhase::kQuarantined: return "quarantined";
    case SpecPhase::kDone: return "done";
    case SpecPhase::kInterrupted: return "interrupted";
  }
  return "?";
}

void StatusBoard::reset(std::size_t n, const std::vector<double>& horizons) {
  std::lock_guard<std::mutex> lock(mu_);
  rows_.assign(n, Row{});
  for (std::size_t i = 0; i < n && i < horizons.size(); ++i)
    rows_[i].horizon = horizons[i];
  merged_ = Registry();
  wall_ = 0.0;
  last_wall_ = -1.0;
  last_events_ = 0;
  ema_ = -1.0;
  progress_ = 0.0;
  eta_ = -1.0;
  retries_ = trips_ = spawns_ = sigkills_ = 0;
  dispatch_enabled_ = false;
  dispatch_ = DispatchCounters{};
  dispatch_workers_.clear();
}

void StatusBoard::dispatch_enable() {
  std::lock_guard<std::mutex> lock(mu_);
  dispatch_enabled_ = true;
}

void StatusBoard::dispatch_worker(const std::string& name, bool connected,
                                  std::uint64_t active_specs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (DispatchWorkerRow& w : dispatch_workers_) {
    if (w.name != name) continue;
    w.connected = connected;
    w.active_specs = active_specs;
    return;
  }
  dispatch_workers_.push_back({name, connected, active_specs});
}

void StatusBoard::dispatch_update(const DispatchCounters& totals) {
  std::lock_guard<std::mutex> lock(mu_);
  dispatch_ = totals;
}

void StatusBoard::mark_running(std::size_t i, int attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  Row& r = rows_[i];
  r.p.phase = SpecPhase::kRunning;
  r.p.retries = attempt;
  r.p.events = 0;
  r.p.sim_time_s = 0.0;
  r.stalled = false;
}

void StatusBoard::mark_checkpoint(std::size_t i, std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  Row& r = rows_[i];
  // Terminal rows hold the authoritative sync_checkpoints() tally; a
  // stale sampler delta arriving after it must not double-count.
  if (r.p.phase == SpecPhase::kDone || r.p.phase == SpecPhase::kQuarantined ||
      r.p.phase == SpecPhase::kInterrupted)
    return;
  r.p.checkpoints += count;
  if (r.p.phase == SpecPhase::kRunning) r.p.phase = SpecPhase::kCheckpointed;
}

void StatusBoard::sync_checkpoints(std::size_t i, std::uint64_t total) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  rows_[i].p.checkpoints = total;
}

void StatusBoard::mark_retrying(std::size_t i, int retries,
                                const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  Row& r = rows_[i];
  r.p.phase = SpecPhase::kRetrying;
  r.p.retries = retries;
  r.p.detail = reason;
  r.stalled = false;
  ++retries_;
}

void StatusBoard::mark_quarantined(std::size_t i, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  Row& r = rows_[i];
  r.p.phase = SpecPhase::kQuarantined;
  r.p.detail = reason;
  r.stalled = false;
}

void StatusBoard::mark_done(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  Row& r = rows_[i];
  r.p.phase = SpecPhase::kDone;
  r.p.detail.clear();
  r.p.sim_time_s = r.horizon;
  r.stalled = false;
}

void StatusBoard::mark_interrupted(std::size_t i, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  Row& r = rows_[i];
  r.p.phase = SpecPhase::kInterrupted;
  r.p.detail = reason;
  r.stalled = false;
}

void StatusBoard::mark_watchdog(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  rows_[i].stalled = true;
  ++trips_;
}

void StatusBoard::mark_worker_spawn(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  ++spawns_;
}

void StatusBoard::mark_sigkill(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  ++sigkills_;
}

void StatusBoard::update_progress(std::size_t i, std::uint64_t events,
                                  double sim_time_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= rows_.size()) return;
  Row& r = rows_[i];
  // Terminal rows keep their final values; a stale sampler read of a
  // recycled slot must not rewind them.
  if (r.p.phase == SpecPhase::kDone || r.p.phase == SpecPhase::kQuarantined ||
      r.p.phase == SpecPhase::kInterrupted)
    return;
  r.p.events = events;
  r.p.sim_time_s = sim_time_s;
}

void StatusBoard::absorb_registry(const Registry& r) {
  std::lock_guard<std::mutex> lock(mu_);
  merged_.merge(r);
}

void StatusBoard::sample(double wall_s) {
  std::lock_guard<std::mutex> lock(mu_);
  wall_ = wall_s;

  std::uint64_t events = 0;
  double fraction_sum = 0.0;
  for (const Row& r : rows_) {
    events += r.p.events;
    if (r.p.phase == SpecPhase::kDone) {
      fraction_sum += 1.0;
    } else if (r.horizon > 0.0) {
      fraction_sum += std::clamp(r.p.sim_time_s / r.horizon, 0.0, 1.0);
    }
  }
  progress_ = rows_.empty() ? 0.0 : fraction_sum / double(rows_.size());

  if (last_wall_ >= 0.0 && wall_s > last_wall_) {
    // A retry resets a spec's per-attempt counter, so the total can step
    // backwards; a negative instantaneous rate is meaningless — clamp.
    const double delta =
        events >= last_events_ ? double(events - last_events_) : 0.0;
    const double inst = delta / (wall_s - last_wall_);
    ema_ = ema_ < 0.0 ? inst : kEmaAlpha * inst + (1.0 - kEmaAlpha) * ema_;
  }
  last_wall_ = wall_s;
  last_events_ = events;

  if (progress_ >= 1.0) {
    eta_ = 0.0;
  } else if (progress_ > 0.0 && wall_s > 0.0) {
    eta_ = wall_s * (1.0 - progress_) / progress_;
  } else {
    eta_ = -1.0;
  }
}

bool StatusBoard::healthy() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Row& r : rows_)
    if (r.stalled || r.p.phase == SpecPhase::kQuarantined) return false;
  return true;
}

StatusSnapshot StatusBoard::snapshot_locked() const {
  StatusSnapshot s;
  s.wall_s = wall_;
  s.events_per_sec_ema = ema_ < 0.0 ? 0.0 : ema_;
  s.progress = progress_;
  s.eta_s = eta_;
  s.retries_total = retries_;
  s.watchdog_trips = trips_;
  s.worker_spawns = spawns_;
  s.sigkills = sigkills_;
  s.healthy = true;
  s.specs.reserve(rows_.size());
  for (const Row& r : rows_) {
    s.specs.push_back(r.p);
    s.phase_counts[static_cast<std::size_t>(r.p.phase)]++;
    s.events_executed += r.p.events;
    s.checkpoints_total += r.p.checkpoints;
    if (r.stalled || r.p.phase == SpecPhase::kQuarantined) s.healthy = false;
  }
  s.dispatch_enabled = dispatch_enabled_;
  s.dispatch = dispatch_;
  s.dispatch_workers = dispatch_workers_;
  return s;
}

StatusSnapshot StatusBoard::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_locked();
}

std::string StatusBoard::render_status_json() const {
  const StatusSnapshot s = snapshot();

  JsonWriter j;
  j.open_object();
  j.key("schema"); j.str("dftmsn-status-v1");
  j.key("wall_s"); j.num(s.wall_s);
  j.key("healthy"); j.boolean(s.healthy);
  j.key("specs_total"); j.num(static_cast<std::uint64_t>(s.specs.size()));
  j.key("phases");
  j.open_object();
  for (int p = 0; p < kSpecPhaseCount; ++p) {
    j.key(spec_phase_name(static_cast<SpecPhase>(p)));
    j.num(s.phase_counts[p]);
  }
  j.close_object();
  j.key("events_executed"); j.num(s.events_executed);
  j.key("events_per_sec_ema"); j.num(s.events_per_sec_ema);
  j.key("progress"); j.num(s.progress);
  j.key("eta_s"); j.num(s.eta_s);
  j.key("retries_total"); j.num(s.retries_total);
  j.key("watchdog_trips"); j.num(s.watchdog_trips);
  j.key("worker_spawns"); j.num(s.worker_spawns);
  j.key("sigkills"); j.num(s.sigkills);
  j.key("checkpoints_total"); j.num(s.checkpoints_total);
  if (s.dispatch_enabled) {
    // Only dispatched sweeps carry this section: the validator ignores
    // unknown keys, and non-dispatched documents stay byte-identical to
    // pre-dispatch builds.
    j.key("dispatch");
    j.open_object();
    j.key("batches_granted"); j.num(s.dispatch.batches_granted);
    j.key("results_accepted"); j.num(s.dispatch.results_accepted);
    j.key("duplicates_discarded"); j.num(s.dispatch.duplicates_discarded);
    j.key("requeues"); j.num(s.dispatch.requeues);
    j.key("leases_expired"); j.num(s.dispatch.leases_expired);
    j.key("workers");
    j.open_array();
    for (const DispatchWorkerRow& w : s.dispatch_workers) {
      j.open_object();
      j.key("name"); j.str(w.name);
      j.key("connected"); j.boolean(w.connected);
      j.key("active_specs"); j.num(w.active_specs);
      j.close_object();
    }
    j.close_array();
    j.close_object();
  }
  j.key("specs");
  j.open_array();
  for (std::size_t i = 0; i < s.specs.size(); ++i) {
    const SpecProgress& p = s.specs[i];
    j.open_object();
    j.key("index"); j.num(static_cast<std::uint64_t>(i));
    j.key("phase"); j.str(spec_phase_name(p.phase));
    j.key("events"); j.num(p.events);
    j.key("sim_time_s"); j.num(p.sim_time_s);
    j.key("checkpoints"); j.num(p.checkpoints);
    j.key("retries"); j.num(p.retries);
    j.key("detail"); j.str(p.detail);
    j.close_object();
  }
  j.close_array();
  j.close_object();
  std::string out = j.take();
  out += '\n';
  return out;
}

std::string StatusBoard::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  const StatusSnapshot s = snapshot_locked();

  std::ostringstream os;
  prom_header(os, "dftmsn_up", "gauge", "1 while the sweep is running.");
  prom_line(os, "dftmsn_up", "", "1");
  prom_header(os, "dftmsn_healthy", "gauge",
              "1 when no spec is stalled or quarantined (healthz).");
  prom_line(os, "dftmsn_healthy", "", s.healthy ? "1" : "0");
  prom_header(os, "dftmsn_specs_total", "gauge",
              "Replication specs in this sweep.");
  prom_line(os, "dftmsn_specs_total", "",
            std::to_string(s.specs.size()));
  prom_header(os, "dftmsn_specs", "gauge",
              "Specs by lifecycle phase.");
  for (int p = 0; p < kSpecPhaseCount; ++p)
    prom_line(os, "dftmsn_specs",
              std::string("phase=\"") +
                  spec_phase_name(static_cast<SpecPhase>(p)) + "\"",
              std::to_string(s.phase_counts[p]));
  prom_header(os, "dftmsn_events_executed_total", "counter",
              "Executed simulation events across running attempts.");
  prom_line(os, "dftmsn_events_executed_total", "",
            std::to_string(s.events_executed));
  prom_header(os, "dftmsn_events_per_second", "gauge",
              "Throughput EMA over all specs.");
  prom_line(os, "dftmsn_events_per_second", "",
            json_format_double(s.events_per_sec_ema));
  prom_header(os, "dftmsn_progress_ratio", "gauge",
              "Mean sim-time fraction over all specs, 0..1.");
  prom_line(os, "dftmsn_progress_ratio", "", json_format_double(s.progress));
  prom_header(os, "dftmsn_eta_seconds", "gauge",
              "Estimated wall seconds to completion (-1 unknown).");
  prom_line(os, "dftmsn_eta_seconds", "", json_format_double(s.eta_s));
  prom_header(os, "dftmsn_retries_total", "counter",
              "Replication attempts that failed and were retried.");
  prom_line(os, "dftmsn_retries_total", "", std::to_string(s.retries_total));
  prom_header(os, "dftmsn_watchdog_trips_total", "counter",
              "Watchdog no-progress trips.");
  prom_line(os, "dftmsn_watchdog_trips_total", "",
            std::to_string(s.watchdog_trips));
  prom_header(os, "dftmsn_worker_spawns_total", "counter",
              "Isolated worker processes spawned.");
  prom_line(os, "dftmsn_worker_spawns_total", "",
            std::to_string(s.worker_spawns));
  prom_header(os, "dftmsn_worker_sigkills_total", "counter",
              "Workers SIGKILLed by the watchdog or stop path.");
  prom_line(os, "dftmsn_worker_sigkills_total", "",
            std::to_string(s.sigkills));
  prom_header(os, "dftmsn_checkpoints_total", "counter",
              "Checkpoints written across all specs and attempts.");
  prom_line(os, "dftmsn_checkpoints_total", "",
            std::to_string(s.checkpoints_total));

  if (s.dispatch_enabled) {
    prom_header(os, "dftmsn_dispatch_batches_granted_total", "counter",
                "Specs granted under a lease, one per grant.");
    prom_line(os, "dftmsn_dispatch_batches_granted_total", "",
              std::to_string(s.dispatch.batches_granted));
    prom_header(os, "dftmsn_dispatch_results_accepted_total", "counter",
                "Worker results accepted (first per spec wins).");
    prom_line(os, "dftmsn_dispatch_results_accepted_total", "",
              std::to_string(s.dispatch.results_accepted));
    prom_header(os, "dftmsn_dispatch_duplicates_discarded_total", "counter",
                "Duplicate results discarded by spec id.");
    prom_line(os, "dftmsn_dispatch_duplicates_discarded_total", "",
              std::to_string(s.dispatch.duplicates_discarded));
    prom_header(os, "dftmsn_dispatch_requeues_total", "counter",
                "Specs requeued after a lost connection or lease.");
    prom_line(os, "dftmsn_dispatch_requeues_total", "",
              std::to_string(s.dispatch.requeues));
    prom_header(os, "dftmsn_dispatch_leases_expired_total", "counter",
                "Leases expired without completion.");
    prom_line(os, "dftmsn_dispatch_leases_expired_total", "",
              std::to_string(s.dispatch.leases_expired));
    prom_header(os, "dftmsn_dispatch_worker_connected", "gauge",
                "1 while the named pull worker is connected.");
    for (const DispatchWorkerRow& w : s.dispatch_workers)
      prom_line(os, "dftmsn_dispatch_worker_connected",
                "worker=\"" + w.name + "\"", w.connected ? "1" : "0");
    prom_header(os, "dftmsn_dispatch_worker_active_specs", "gauge",
                "Specs currently leased to the named worker.");
    for (const DispatchWorkerRow& w : s.dispatch_workers)
      prom_line(os, "dftmsn_dispatch_worker_active_specs",
                "worker=\"" + w.name + "\"",
                std::to_string(w.active_specs));
  }

  // The merged instrument registry of completed specs, under a
  // dftmsn_registry_ prefix (docs/observability.md lists the mapping).
  for (const auto& [name, c] : merged_.counters()) {
    const std::string m = "dftmsn_registry_" + prometheus_name(name) +
                          "_total";
    prom_header(os, m, "counter", "Registry counter (completed specs).");
    prom_line(os, m, "", std::to_string(c.value()));
  }
  for (const auto& [name, g] : merged_.gauges()) {
    const std::string m = "dftmsn_registry_" + prometheus_name(name);
    prom_header(os, m, "gauge", "Registry gauge (completed specs).");
    prom_line(os, m, "", json_format_double(g.value()));
  }
  for (const auto& [name, h] : merged_.histograms()) {
    const std::string m = "dftmsn_registry_" + prometheus_name(name);
    prom_header(os, m, "summary", "Registry histogram (completed specs).");
    prom_line(os, m + "_count", "", std::to_string(h.count()));
    prom_line(os, m + "_sum", "", json_format_double(h.sum()));
  }
  return os.str();
}

std::string render_status_table(const JsonValue& status) {
  std::ostringstream os;
  const double wall = status.number_or("wall_s", 0.0);
  const bool healthy = status.bool_or("healthy", true);
  const auto total = static_cast<std::uint64_t>(
      status.number_or("specs_total", 0.0));

  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", wall);
  os << "sweep status @ " << buf << "s wall — "
     << (healthy ? "healthy" : "UNHEALTHY") << "\n";

  os << "specs: " << total;
  if (const JsonValue* phases = status.find("phases");
      phases != nullptr && phases->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, v] : phases->members) {
      if (v.kind != JsonValue::Kind::kNumber || v.num == 0.0) continue;
      os << "  " << name << '='
         << static_cast<std::uint64_t>(v.num);
    }
  }
  os << "\n";

  std::snprintf(buf, sizeof(buf), "%.1f",
                status.number_or("events_per_sec_ema", 0.0));
  os << "events: "
     << static_cast<std::uint64_t>(status.number_or("events_executed", 0.0))
     << "  rate: " << buf << "/s";
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * status.number_or("progress", 0.0));
  os << "  progress: " << buf;
  const double eta = status.number_or("eta_s", -1.0);
  if (eta >= 0.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", eta);
    os << "  eta: " << buf << "s";
  }
  os << "\n";
  os << "retries="
     << static_cast<std::uint64_t>(status.number_or("retries_total", 0.0))
     << " watchdog_trips="
     << static_cast<std::uint64_t>(status.number_or("watchdog_trips", 0.0))
     << " worker_spawns="
     << static_cast<std::uint64_t>(status.number_or("worker_spawns", 0.0))
     << " sigkills="
     << static_cast<std::uint64_t>(status.number_or("sigkills", 0.0))
     << " checkpoints="
     << static_cast<std::uint64_t>(
            status.number_or("checkpoints_total", 0.0))
     << "\n";

  const JsonValue* specs = status.find("specs");
  if (specs == nullptr || specs->kind != JsonValue::Kind::kArray) {
    return os.str();
  }
  os << " spec  phase         events      sim_time  ckpts  retries  detail\n";
  for (const JsonValue& row : specs->items) {
    if (row.kind != JsonValue::Kind::kObject) continue;
    std::snprintf(buf, sizeof(buf), "%5llu  %-12s  %-10llu  %-8.1f  %-5llu  %-7llu",
        static_cast<unsigned long long>(row.number_or("index", 0.0)),
        row.string_or("phase", "?").c_str(),
        static_cast<unsigned long long>(row.number_or("events", 0.0)),
        row.number_or("sim_time_s", 0.0),
        static_cast<unsigned long long>(row.number_or("checkpoints", 0.0)),
        static_cast<unsigned long long>(row.number_or("retries", 0.0)));
    os << buf;
    const std::string detail = row.string_or("detail", "");
    if (!detail.empty()) os << "  " << detail;
    os << "\n";
  }
  return os.str();
}

}  // namespace dftmsn::telemetry
