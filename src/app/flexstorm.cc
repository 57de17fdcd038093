#include "src/app/flexstorm.h"

#include <algorithm>
#include <cstring>

#include "src/util/logging.h"

namespace tas {
namespace {

constexpr size_t kTupleBytes = 128;
// Per-tuple stage costs in cycles.
constexpr uint64_t kDemuxCycles = 150;
constexpr uint64_t kWorkerCycles = 760;  // ~0.36 us at 2.1 GHz (Table 8 Processing).
constexpr uint64_t kMuxCycles = 200;
// Bound on tuples queued toward the multiplexer (drop-on-overflow keeps the
// pipeline in steady state under overload).
constexpr size_t kMuxQueueLimit = 20000;
constexpr int kHopsPerTuple = 3;

}  // namespace

FlexStormNode::FlexStormNode(Simulator* sim, Stack* stack, std::vector<Core*> cores,
                             const FlexStormConfig& config)
    : sim_(sim), stack_(stack), config_(config), rng_(config.rng_seed) {
  TAS_CHECK(cores.size() >= config.num_workers + 2);
  demux_core_ = cores.front();
  for (size_t i = 0; i < config.num_workers; ++i) {
    worker_cores_.push_back(cores[1 + i]);
  }
  mux_core_ = cores[1 + config.num_workers];
}

void FlexStormNode::Start(IpAddr next_ip) {
  stack_->SetHandler(this);
  stack_->Listen(config_.port);
  if (next_ip != 0) {
    out_conn_ = stack_->Connect(next_ip, config_.port);
  }
  if (config_.spout_rate_tps > 0) {
    SpoutTick();
  }
}

void FlexStormNode::BeginMeasurement() {
  measuring_ = true;
  measure_start_ = sim_->Now();
  completed_at_start_ = completed_;
}

double FlexStormNode::Throughput() const {
  const TimeNs elapsed = sim_->Now() - measure_start_;
  if (elapsed <= 0) {
    return 0;
  }
  return static_cast<double>(completed_ - completed_at_start_) / ToSec(elapsed);
}

void FlexStormNode::OnConnected(ConnId conn, bool success) {
  if (conn == out_conn_ && success) {
    out_connected_ = true;
  }
}

void FlexStormNode::OnAccepted(ConnId conn, uint16_t port) {
  (void)port;
  rx_bufs_[conn];
}

void FlexStormNode::SpoutTick() {
  const double mean_gap_ns = 1e9 / config_.spout_rate_tps;
  sim_->After(static_cast<TimeNs>(rng_.NextExp(mean_gap_ns)), [this] {
    Tuple tuple;
    tuple.created = sim_->Now();
    tuple.hops = 0;
    tuple.worker_done = sim_->Now();
    // Backpressure: a saturated topology drops the tuple.
    if (out_connected_ && out_queue_.size() < kMuxQueueLimit / 2 &&
        mux_queue_.size() < kMuxQueueLimit / 2) {
      EnqueueMux(tuple);
    }
    SpoutTick();
  });
}

void FlexStormNode::OnData(ConnId conn, size_t bytes) {
  auto it = rx_bufs_.find(conn);
  if (it == rx_bufs_.end()) {
    it = rx_bufs_.emplace(conn, std::vector<uint8_t>{}).first;
  }
  std::vector<uint8_t>& buf = it->second;
  const size_t old = buf.size();
  buf.resize(old + bytes);
  const size_t got = stack_->Recv(conn, buf.data() + old, bytes);
  buf.resize(old + got);

  const TimeNs arrival = sim_->Now();
  size_t offset = 0;
  while (buf.size() - offset >= kTupleBytes) {
    Tuple tuple;
    std::memcpy(&tuple.created, buf.data() + offset, sizeof(tuple.created));
    std::memcpy(&tuple.hops, buf.data() + offset + 8, sizeof(tuple.hops));
    offset += kTupleBytes;
    HandleTuple(tuple, arrival);
  }
  if (offset > 0) {
    buf.erase(buf.begin(), buf.begin() + static_cast<long>(offset));
  }
}

void FlexStormNode::HandleTuple(Tuple tuple, TimeNs arrival) {
  // Demultiplexer: route the tuple to a worker.
  const TimeNs demux_done = demux_core_->Charge(CpuModule::kApp, kDemuxCycles);
  Core* worker = worker_cores_[next_worker_++ % worker_cores_.size()];
  sim_->At(demux_done, [this, tuple, arrival, worker]() mutable {
    const TimeNs start = std::max(sim_->Now(), worker->busy_until());
    const TimeNs done = worker->Charge(CpuModule::kApp, kWorkerCycles);
    if (measuring_) {
      input_wait_us_.Add(ToUs(start - arrival));
      processing_us_.Add(ToUs(done - start));
    }
    tuple.worker_done = done;
    sim_->At(done, [this, tuple] {
      Tuple t = tuple;
      t.hops += 1;
      if (t.hops >= kHopsPerTuple) {
        CompleteTuple(t);
      } else {
        EnqueueMux(t);
      }
    });
  });
}

void FlexStormNode::EnqueueMux(Tuple tuple) {
  if (mux_queue_.size() >= kMuxQueueLimit) {
    return;
  }
  mux_queue_.push_back(tuple);
  if (mux_queue_.size() >= config_.mux_batch_tuples || config_.mux_batch_timeout == 0) {
    mux_timer_.Cancel();
    FlushMux();
  } else if (!mux_timer_.valid()) {
    mux_timer_ = sim_->After(config_.mux_batch_timeout, [this] { FlushMux(); });
  }
}

void FlexStormNode::FlushMux() {
  while (!mux_queue_.empty()) {
    Tuple tuple = mux_queue_.front();
    mux_queue_.pop_front();
    const TimeNs done = mux_core_->Charge(CpuModule::kApp, kMuxCycles);
    sim_->At(done, [this, tuple] { EmitTuple(tuple); });
  }
}

void FlexStormNode::EmitTuple(const Tuple& tuple) {
  if (!out_connected_) {
    return;  // Downstream not up yet; drop (startup only).
  }
  if (measuring_) {
    output_wait_us_.Add(ToUs(sim_->Now() - tuple.worker_done));
  }
  std::vector<uint8_t> buf(kTupleBytes, 0);
  std::memcpy(buf.data(), &tuple.created, sizeof(tuple.created));
  std::memcpy(buf.data() + 8, &tuple.hops, sizeof(tuple.hops));
  if (out_queue_.size() >= kMuxQueueLimit) {
    return;
  }
  out_queue_.push_back(std::move(buf));
  TrySendOut();
}

void FlexStormNode::TrySendOut() {
  // Tuples must be written whole or the downstream framing breaks; wait for
  // send-buffer space otherwise (TCP backpressure).
  while (!out_queue_.empty() &&
         stack_->SendSpace(out_conn_) >= out_queue_.front().size()) {
    const std::vector<uint8_t>& buf = out_queue_.front();
    const size_t sent = stack_->Send(out_conn_, buf.data(), buf.size());
    TAS_CHECK(sent == buf.size());
    out_queue_.pop_front();
  }
}

void FlexStormNode::OnSendSpace(ConnId conn, size_t bytes) {
  (void)bytes;
  if (conn == out_conn_) {
    TrySendOut();
  }
}

void FlexStormNode::CompleteTuple(const Tuple& tuple) {
  ++completed_;
  if (measuring_) {
    tuple_latency_us_.Add(ToUs(sim_->Now() - tuple.created));
  }
}

void FlexStormNode::OnRemoteClosed(ConnId conn) { stack_->Close(conn); }

void FlexStormNode::OnClosed(ConnId conn) { rx_bufs_.erase(conn); }

}  // namespace tas
