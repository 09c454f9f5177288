#include "telemetry/lifecycle_trace.hpp"

#include <stdexcept>

#include "telemetry/json_writer.hpp"

namespace dftmsn::telemetry {

LifecycleTrace::LifecycleTrace(const std::string& path)
    : t0_(std::chrono::steady_clock::now()) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr)
    throw std::runtime_error("lifecycle trace: cannot open " + path);
  std::fputs("[\n", f_);
  std::fflush(f_);
}

LifecycleTrace::~LifecycleTrace() {
  if (f_ != nullptr) std::fclose(f_);
}

void LifecycleTrace::begin(std::size_t spec, const std::string& name,
                           const Args& args) {
  emit('B', spec, name, args);
}

void LifecycleTrace::end(std::size_t spec, const std::string& name) {
  emit('E', spec, name, {});
}

void LifecycleTrace::instant(std::size_t spec, const std::string& name,
                             const Args& args) {
  emit('i', spec, name, args);
}

void LifecycleTrace::emit(char ph, std::size_t spec, const std::string& name,
                          const Args& args) {
  const auto ts = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0_)
                      .count();
  // One compact object per line, trailing comma: valid as a prefix of a
  // JSON array, and each line minus the comma parses standalone (which
  // is how the tests and any JSONL tooling consume it).
  std::string line = "{\"name\": \"";
  line += json_escape(name);
  line += "\", \"cat\": \"sweep\", \"ph\": \"";
  line += ph;
  line += "\", \"ts\": ";
  line += std::to_string(ts);
  line += ", \"pid\": 1, \"tid\": ";
  line += std::to_string(spec);
  if (ph == 'i') line += ", \"s\": \"t\"";  // instant scoped to its thread
  if (!args.empty()) {
    line += ", \"args\": {";
    bool first = true;
    for (const auto& [k, v] : args) {
      if (!first) line += ", ";
      first = false;
      line += '"';
      line += json_escape(k);
      line += "\": \"";
      line += json_escape(v);
      line += '"';
    }
    line += "}";
  }
  line += "},\n";

  std::lock_guard<std::mutex> lock(mu_);
  if (f_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), f_);
  // Flushed per event: the trace must survive a SIGKILLed supervisor up
  // to the last transition, or it is useless for post-mortems.
  std::fflush(f_);
}

}  // namespace dftmsn::telemetry
