#include "src/harness/flowgen.h"

#include <algorithm>
#include <array>

namespace tas {
namespace {

constexpr size_t kMaxConcurrent = 512;  // Safety valve on open flows.

// Bytes per Send (and per sink-side Recv) call.
constexpr size_t kChunkBytes = 8192;

constexpr std::array<uint8_t, kChunkBytes> MakeFiller() {
  std::array<uint8_t, kChunkBytes> bytes{};
  bytes.fill(0x42);
  return bytes;
}

// The payload every source sends: one read-only buffer for all of them.
constexpr std::array<uint8_t, kChunkBytes> kFiller = MakeFiller();

}  // namespace

FlowSource::FlowSource(Simulator* sim, Stack* stack, const FlowGenConfig& config)
    : sim_(sim),
      stack_(stack),
      config_(config),
      rng_(config.rng_seed),
      sizes_(config.pareto_min_bytes, config.pareto_max_bytes, config.pareto_alpha) {}

void FlowSource::Start() {
  stack_->SetHandler(this);
  ArrivalTick();
}

void FlowSource::AlsoSink(uint16_t port) { stack_->Listen(port); }

void FlowSource::OnData(ConnId conn, size_t bytes) {
  // Sink role: drain payload of accepted flows.
  uint8_t scratch[kChunkBytes];
  size_t remaining = bytes;
  while (remaining > 0) {
    const size_t n = stack_->Recv(conn, scratch, std::min(remaining, kChunkBytes));
    if (n == 0) {
      break;
    }
    remaining -= n;
  }
}

void FlowSource::BeginMeasurement() {
  measuring_ = true;
  fct_all_ = RunningStats{};
  fct_short_.Clear();
  fct_long_.Clear();
}

void FlowSource::ArrivalTick() {
  sim_->After(static_cast<TimeNs>(
                  rng_.NextExp(static_cast<double>(config_.mean_interarrival))),
              [this] {
                if (flows_.size() < kMaxConcurrent) {
                  StartFlow();
                }
                ArrivalTick();
              });
}

void FlowSource::StartFlow() {
  const auto& dst =
      config_.destinations[rng_.NextUint64(config_.destinations.size())];
  const ConnId conn = stack_->Connect(dst.first, dst.second);
  FlowRec rec;
  rec.size = static_cast<size_t>(sizes_.Sample(rng_));
  rec.started_at = sim_->Now();
  flows_[conn] = rec;
  ++started_;
}

void FlowSource::OnConnected(ConnId conn, bool success) {
  auto it = flows_.find(conn);
  if (it == flows_.end()) {
    return;
  }
  if (!success) {
    flows_.erase(it);
    return;
  }
  PumpFlow(conn, it->second);
}

void FlowSource::PumpFlow(ConnId conn, FlowRec& rec) {
  while (rec.queued < rec.size) {
    const size_t want = std::min(kChunkBytes, rec.size - rec.queued);
    const size_t sent = stack_->Send(conn, kFiller.data(), want);
    rec.queued += sent;
    if (sent < want) {
      break;  // Send buffer full; OnSendSpace resumes.
    }
  }
}

void FlowSource::OnSendSpace(ConnId conn, size_t bytes) {
  auto it = flows_.find(conn);
  if (it == flows_.end()) {
    return;
  }
  FlowRec& rec = it->second;
  rec.acked += bytes;
  if (rec.queued < rec.size) {
    PumpFlow(conn, rec);
  }
  if (rec.acked >= rec.size) {
    // Flow complete: all bytes delivered and acknowledged.
    const double fct_ms = ToMs(sim_->Now() - rec.started_at);
    if (measuring_) {
      fct_all_.Add(fct_ms);
      // Short/long split at 50 packets of 1448 B (paper Fig 12).
      if (rec.size <= 50 * 1448) {
        fct_short_.Add(fct_ms);
      } else {
        fct_long_.Add(fct_ms);
      }
    }
    ++completed_;
    flows_.erase(it);
    stack_->Close(conn);
  }
}

void FlowSource::OnClosed(ConnId conn) { flows_.erase(conn); }

void FlowSource::OnRemoteClosed(ConnId conn) {
  flows_.erase(conn);
  stack_->Close(conn);
}

FlowSink::FlowSink(Simulator* sim, Stack* stack, uint16_t port)
    : sim_(sim), stack_(stack), port_(port), scratch_(64 * 1024) {}

void FlowSink::Start() {
  stack_->SetHandler(this);
  stack_->Listen(port_);
}

void FlowSink::OnData(ConnId conn, size_t bytes) {
  size_t remaining = bytes;
  while (remaining > 0) {
    const size_t n =
        stack_->Recv(conn, scratch_.data(), std::min(remaining, scratch_.size()));
    if (n == 0) {
      break;
    }
    bytes_ += n;
    remaining -= n;
  }
}

void FlowSink::OnRemoteClosed(ConnId conn) { stack_->Close(conn); }

}  // namespace tas
