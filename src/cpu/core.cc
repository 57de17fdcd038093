#include "src/cpu/core.h"

#include <algorithm>

namespace tas {

const char* CpuModuleName(CpuModule m) {
  switch (m) {
    case CpuModule::kDriver:
      return "Driver";
    case CpuModule::kIp:
      return "IP";
    case CpuModule::kTcp:
      return "TCP";
    case CpuModule::kSockets:
      return "Sockets/IX";
    case CpuModule::kOther:
      return "Other";
    case CpuModule::kApp:
      return "App";
  }
  return "?";
}

Core::Core(Simulator* sim, int id, double ghz) : sim_(sim), id_(id), ghz_(ghz) {
  TAS_CHECK(ghz > 0);
}

TimeNs Core::Charge(CpuModule module, uint64_t cycles) {
  const TimeNs start = std::max(sim_->Now(), busy_until_);
  const TimeNs duration = CyclesToTime(cycles);
  busy_until_ = start + duration;
  busy_ns_ += duration;
  max_ahead_ns_ = std::max(max_ahead_ns_, busy_until_ - sim_->Now());
  cycles_[static_cast<size_t>(module)] += cycles;
  if (span_listener_) {
    span_listener_(module, start, busy_until_);
  }
  return busy_until_;
}

void Core::Account(CpuModule module, uint64_t cycles) {
  cycles_[static_cast<size_t>(module)] += cycles;
}

double Core::Utilization(TimeNs busy_ns_at_start, TimeNs window_start, TimeNs now) const {
  const TimeNs window = now - window_start;
  if (window <= 0) {
    return 0;
  }
  const TimeNs busy = busy_ns_ - busy_ns_at_start;
  return std::clamp(static_cast<double>(busy) / static_cast<double>(window), 0.0, 1.0);
}

uint64_t Core::total_cycles() const {
  uint64_t total = 0;
  for (uint64_t c : cycles_) {
    total += c;
  }
  return total;
}

void Core::ResetAccounting() {
  cycles_.fill(0);
  busy_ns_ = 0;
  max_ahead_ns_ = 0;
}

}  // namespace tas
