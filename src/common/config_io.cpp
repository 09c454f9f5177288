#include "common/config_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

namespace dftmsn {
namespace {

/// One addressable field: name + setter-from-string + getter-as-string.
/// Double-typed fields additionally carry bit-exact accessors: the string
/// form goes through default stream precision (6 significant digits), so
/// it cannot round-trip an arbitrary double — but the worker protocol
/// must hand a child process the parent's Config *bit for bit*, or the
/// child's trajectory (and checkpoint digests) would silently drift.
struct Field {
  std::string key;
  std::function<void(Config&, const std::string&)> set;
  std::function<std::string(const Config&)> get;
  std::function<double(const Config&)> get_f64;   ///< doubles only
  std::function<void(Config&, double)> set_f64;   ///< doubles only
};

double parse_double(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  double out = 0.0;
  // stod throws invalid_argument with an unhelpful "stod" message (and
  // out_of_range for overflow) — rewrap both so the error names the key
  // and the offending token.
  try {
    out = std::stod(v, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("config: bad number for " + key + ": '" + v +
                                "'");
  }
  if (used != v.size())
    throw std::invalid_argument("config: bad number for " + key + ": '" + v +
                                "'");
  if (!std::isfinite(out))
    throw std::invalid_argument("config: non-finite value for " + key +
                                ": '" + v + "'");
  return out;
}

long long parse_int(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  long long out = 0;
  try {
    out = std::stoll(v, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("config: bad integer for " + key + ": '" + v +
                                "'");
  }
  if (used != v.size())
    throw std::invalid_argument("config: bad integer for " + key + ": '" + v +
                                "'");
  return out;
}

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw std::invalid_argument("config: bad bool for " + key + ": " + v);
}

MobilityKind parse_mobility(const std::string& key, const std::string& v) {
  if (v == "zone") return MobilityKind::kZone;
  if (v == "waypoint") return MobilityKind::kWaypoint;
  if (v == "patrol") return MobilityKind::kPatrol;
  if (v == "trace") return MobilityKind::kTrace;
  throw std::invalid_argument("config: bad mobility kind for " + key + ": " +
                              v + " (zone|waypoint|patrol|trace)");
}

QueuePolicy parse_policy(const std::string& key, const std::string& v) {
  if (v == "ftd") return QueuePolicy::kFtdSorted;
  if (v == "fifo") return QueuePolicy::kFifo;
  if (v == "random") return QueuePolicy::kRandomDrop;
  throw std::invalid_argument("config: bad queue policy for " + key + ": " +
                              v + " (ftd|fifo|random)");
}

std::string policy_name(QueuePolicy p) {
  switch (p) {
    case QueuePolicy::kFtdSorted: return "ftd";
    case QueuePolicy::kFifo: return "fifo";
    case QueuePolicy::kRandomDrop: return "random";
  }
  return "?";
}

template <typename T>
std::string to_str(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

#define DFTMSN_FIELD_D(path)                                              \
  Field {                                                                 \
    #path, [](Config& c, const std::string& v) {                          \
      c.path = parse_double(#path, v);                                    \
    },                                                                    \
        [](const Config& c) { return to_str(c.path); },                   \
        [](const Config& c) { return c.path; },                           \
        [](Config& c, double v) { c.path = v; }                           \
  }
#define DFTMSN_FIELD_I(path, type)                                        \
  Field {                                                                 \
    #path, [](Config& c, const std::string& v) {                          \
      c.path = static_cast<type>(parse_int(#path, v));                    \
    },                                                                    \
        [](const Config& c) { return to_str(c.path); }, nullptr, nullptr  \
  }
#define DFTMSN_FIELD_B(path)                                              \
  Field {                                                                 \
    #path, [](Config& c, const std::string& v) {                          \
      c.path = parse_bool(#path, v);                                      \
    },                                                                    \
        [](const Config& c) { return c.path ? "true" : "false"; },        \
        nullptr, nullptr                                                  \
  }

const std::vector<Field>& fields() {
  static const std::vector<Field> kFields = {
      DFTMSN_FIELD_D(radio.range_m),
      DFTMSN_FIELD_D(radio.bandwidth_bps),
      DFTMSN_FIELD_I(radio.data_bits, std::size_t),
      DFTMSN_FIELD_I(radio.control_bits, std::size_t),
      DFTMSN_FIELD_D(radio.switch_time_s),
      DFTMSN_FIELD_D(power.rx_w),
      DFTMSN_FIELD_D(power.tx_w),
      DFTMSN_FIELD_D(power.idle_w),
      DFTMSN_FIELD_D(power.sleep_w),
      DFTMSN_FIELD_D(power.switch_w),
      DFTMSN_FIELD_D(protocol.alpha),
      DFTMSN_FIELD_D(protocol.xi_timeout_s),
      DFTMSN_FIELD_D(protocol.xi_update_cooldown_s),
      DFTMSN_FIELD_D(protocol.ftd_drop_threshold),
      DFTMSN_FIELD_D(protocol.delivery_threshold_r),
      DFTMSN_FIELD_I(protocol.queue_capacity, std::size_t),
      DFTMSN_FIELD_I(protocol.idle_cycles_before_sleep, int),
      DFTMSN_FIELD_I(protocol.retry_gap_slots, int),
      DFTMSN_FIELD_I(protocol.max_retry_gap_slots, int),
      DFTMSN_FIELD_D(protocol.lone_retry_s),
      DFTMSN_FIELD_B(sleep.enabled),
      DFTMSN_FIELD_I(sleep.history_cycles, int),
      DFTMSN_FIELD_D(sleep.buffer_threshold_h),
      DFTMSN_FIELD_D(sleep.important_ftd),
      DFTMSN_FIELD_D(sleep.t_min_floor_s),
      DFTMSN_FIELD_B(contention.adaptive),
      DFTMSN_FIELD_I(contention.tau_max_slots, int),
      DFTMSN_FIELD_I(contention.tau_cap_slots, int),
      DFTMSN_FIELD_D(contention.rts_collision_target),
      DFTMSN_FIELD_I(contention.cts_window_slots, int),
      DFTMSN_FIELD_I(contention.cts_window_cap, int),
      DFTMSN_FIELD_D(contention.cts_collision_target),
      DFTMSN_FIELD_D(scenario.field_m),
      DFTMSN_FIELD_I(scenario.zones_per_side, int),
      DFTMSN_FIELD_I(scenario.num_sensors, int),
      DFTMSN_FIELD_I(scenario.num_sinks, int),
      DFTMSN_FIELD_D(scenario.speed_min_mps),
      DFTMSN_FIELD_D(scenario.speed_max_mps),
      DFTMSN_FIELD_D(scenario.zone_exit_prob),
      DFTMSN_FIELD_D(scenario.home_return_prob),
      DFTMSN_FIELD_D(scenario.leg_mean_s),
      DFTMSN_FIELD_D(scenario.mobility_step_s),
      DFTMSN_FIELD_D(scenario.data_interval_s),
      DFTMSN_FIELD_D(scenario.duration_s),
      DFTMSN_FIELD_D(scenario.warmup_s),
      DFTMSN_FIELD_I(scenario.seed, std::uint64_t),
      DFTMSN_FIELD_B(faults.check_invariants),
      DFTMSN_FIELD_I(faults.invariant_stride, int),
      DFTMSN_FIELD_B(telemetry.enabled),
      DFTMSN_FIELD_B(telemetry.profile),
      DFTMSN_FIELD_D(telemetry.sample_period_s),
      // The fault plan is a free-form string (validated by
      // parse_fault_plan at World construction, not here). Note the
      // assignment splitter takes the FIRST '=', so plan values
      // containing '=' (node=3,...) pass through intact.
      Field{"faults.plan",
            [](Config& c, const std::string& v) { c.faults.plan = v; },
            [](const Config& c) { return c.faults.plan; }, nullptr, nullptr},
      // Free-form path; existence/readability is checked at config-file
      // load time (below) and again when the World loads the trace.
      Field{"scenario.trace_path",
            [](Config& c, const std::string& v) { c.scenario.trace_path = v; },
            [](const Config& c) { return c.scenario.trace_path; }, nullptr,
            nullptr},
      // Enumerated fields need custom parsers.
      Field{"scenario.mobility",
            [](Config& c, const std::string& v) {
              c.scenario.mobility = parse_mobility("scenario.mobility", v);
            },
            [](const Config& c) {
              return std::string(mobility_kind_name(c.scenario.mobility));
            },
            nullptr, nullptr},
      Field{"protocol.queue_policy",
            [](Config& c, const std::string& v) {
              c.protocol.queue_policy =
                  parse_policy("protocol.queue_policy", v);
            },
            [](const Config& c) {
              return policy_name(c.protocol.queue_policy);
            },
            nullptr, nullptr},
  };
  return kFields;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

}  // namespace

void apply_config_override(Config& config, const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos)
    throw std::invalid_argument("config: expected key=value, got '" +
                                assignment + "'");
  const std::string key = trim(assignment.substr(0, eq));
  const std::string value = trim(assignment.substr(eq + 1));
  for (const Field& f : fields()) {
    if (f.key == key) {
      f.set(config, value);
      return;
    }
  }
  throw std::invalid_argument("config: unknown key '" + key + "'");
}

void apply_config_overrides(Config& config,
                            const std::vector<std::string>& assignments) {
  for (const std::string& a : assignments) apply_config_override(config, a);
}

void load_config_file(Config& config, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    try {
      apply_config_override(config, line);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(path + ":" + std::to_string(lineno) +
                                  ": " + e.what());
    }
  }
  // Fail fast: a file that parses but encodes a nonsensical combination
  // (negative duration, speed_max < speed_min, ...) should be rejected at
  // load time with the file named, not deep inside World construction.
  try {
    config.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
  // A trace-driven scenario whose trace file is missing or unreadable
  // must also fail here, naming the trace file — not later, deep inside
  // World construction on some worker thread.
  if (config.scenario.mobility == MobilityKind::kTrace) {
    std::ifstream trace(config.scenario.trace_path,
                        std::ios::in | std::ios::binary);
    if (!trace)
      throw std::invalid_argument(path + ": scenario.trace_path: cannot open '" +
                                  config.scenario.trace_path + "'");
  }
}

std::vector<std::string> list_config_keys(const Config& config) {
  std::vector<std::string> out;
  out.reserve(fields().size());
  for (const Field& f : fields()) out.push_back(f.key + "=" + f.get(config));
  return out;
}

void save_config_exact(const Config& config, snapshot::Writer& w) {
  w.begin_section("config");
  w.size(fields().size());
  for (const Field& f : fields()) {
    w.str(f.key);
    if (f.get_f64) {
      w.u8(1);  // bit-exact double
      w.f64(f.get_f64(config));
    } else {
      w.u8(0);  // string form (exact for ints, bools and enums)
      w.str(f.get(config));
    }
  }
  w.end_section();
}

void load_config_exact(Config& config, snapshot::Reader& r) {
  r.begin_section("config");
  const std::size_t n = r.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key = r.str();
    const Field* field = nullptr;
    for (const Field& f : fields())
      if (f.key == key) {
        field = &f;
        break;
      }
    if (field == nullptr)
      throw std::invalid_argument("config: unknown key '" + key +
                                  "' in exact-encoded config");
    const std::uint8_t tag = r.u8();
    if (tag == 1) {
      if (!field->set_f64)
        throw std::invalid_argument("config: key '" + key +
                                    "' is not double-typed");
      field->set_f64(config, r.f64());
    } else {
      field->set(config, r.str());
    }
  }
  r.end_section();
}

}  // namespace dftmsn
