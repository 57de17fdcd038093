#include "src/baseline/engine_stack.h"

#include <algorithm>

#include "src/sim/context.h"
#include "src/trace/latency.h"

namespace tas {
namespace {

// Drop incoming packets when a stack core's backlog exceeds this (models
// bounded softirq/backlog queues).
constexpr TimeNs kMaxBacklog = Ms(2);
// Packets drained from a NIC queue per aggregated processing event (the NAPI
// poll budget / DPDK rx_burst analogue).
constexpr size_t kRxBurst = 16;
// Seed of the stream connection ISNs are drawn from.
constexpr uint64_t kRngSeed = 0xBA5E;

}  // namespace

EngineStack::EngineStack(Simulator* sim, HostPort* port, std::vector<Core*> app_cores,
                         const EngineStackConfig& config)
    : sim_(sim), config_(config), app_cores_(std::move(app_cores)), rng_(kRngSeed) {
  TAS_CHECK(!app_cores_.empty());
  if (config_.stack_cores > 0) {
    for (int i = 0; i < config_.stack_cores; ++i) {
      owned_stack_cores_.push_back(std::make_unique<Core>(sim, 100 + i, kCoreGhz));
      stack_cores_.push_back(owned_stack_cores_.back().get());
    }
  } else {
    stack_cores_ = app_cores_;  // Monolithic / run-to-completion: shared.
    shared_cores_ = true;
  }

  NicConfig nic_config;
  nic_config.num_queues = static_cast<int>(stack_cores_.size());
  nic_ = std::make_unique<SimNic>(sim, port, nic_config);
  for (int q = 0; q < nic_->num_queues(); ++q) {
    nic_->SetRxNotify(q, [this, q] { DrainRxQueue(q); });
  }
  rx_queues_.resize(static_cast<size_t>(nic_->num_queues()));

  const AppEventLoopConfig loop{config_.event_batch, config_.batch_timeout,
                                config_.wakeup_latency};
  app_events_.resize(app_cores_.size());
  for (size_t c = 0; c < app_cores_.size(); ++c) {
    // Run to completion on a shared core: it pops its next RX burst once the
    // app events of the last one are dispatched.
    AppEventLoop<PendingEvent>::IdleFn idle;
    if (shared_cores_) {
      idle = [this, c] { DrainRxQueue(static_cast<int>(c)); };
    }
    app_loops_.push_back(std::make_unique<AppEventLoop<PendingEvent>>(
        sim_, app_cores_[c], &app_events_[c], loop,
        [this](const PendingEvent& e) { return e.cheap() ? kEventReadCycles : config_.costs->rx_api; },
        nullptr, [this](const std::vector<PendingEvent>& batch) { DispatchBatch(batch); },
        std::move(idle)));
  }
}

EngineStack::~EngineStack() = default;

EngineStack::ConnEntry* EngineStack::Entry(ConnId conn) {
  auto it = conns_.find(conn);
  return it == conns_.end() ? nullptr : &it->second;
}

const EngineStack::ConnEntry* EngineStack::Entry(ConnId conn) const {
  auto it = conns_.find(conn);
  return it == conns_.end() ? nullptr : &it->second;
}

TcpConnection* EngineStack::connection(ConnId conn) {
  ConnEntry* entry = Entry(conn);
  return entry == nullptr ? nullptr : entry->tcp.get();
}

uint64_t EngineStack::CacheExtraPerPacket() const {
  return config_.costs->cache.ExtraCyclesPerPacket(conns_.size());
}

void EngineStack::Listen(uint16_t port) { listeners_.insert(port); }

ConnId EngineStack::Connect(IpAddr dst_ip, uint16_t dst_port) {
  const uint16_t local_port = ports_.AllocateEphemeral();
  const ConnId id = next_conn_++;

  ConnEntry entry;
  entry.passive = false;
  entry.tcp = std::make_unique<TcpConnection>(sim_, this, config_.tcp, nic_->ip(), local_port,
                                              dst_ip, dst_port,
                                              static_cast<uint32_t>(rng_.Next()));
  entry.tcp->opaque = id;

  // Stack core by (symmetric) flow hash, matching the NIC's RSS steering.
  Packet probe;
  probe.ip.src = dst_ip;
  probe.ip.dst = nic_->ip();
  probe.tcp.src_port = dst_port;
  probe.tcp.dst_port = local_port;
  entry.stack_core = static_cast<size_t>(
      nic_->RedirectionEntryQueue(nic_->RedirectionEntryFor(probe)));
  entry.app_core =
      shared_cores_ ? entry.stack_core : next_app_core_rr_++ % app_cores_.size();

  TcpConnection* tcp = entry.tcp.get();
  demux_[FlowKey{local_port, dst_ip, dst_port}] = id;
  ports_.Acquire(local_port);
  conns_[id] = std::move(entry);

  stack_cores_[conns_[id].stack_core]->Charge(CpuModule::kTcp, config_.costs->connection_setup);
  tcp->Connect();
  return id;
}

size_t EngineStack::Send(ConnId conn, const uint8_t* data, size_t len) {
  ConnEntry* entry = Entry(conn);
  if (entry == nullptr) {
    return 0;
  }
  const size_t accepted = entry->tcp->Send(data, len);
  // Copy cost accrues only for bytes actually taken into the send buffer.
  app_cores_[entry->app_core]->Charge(
      CpuModule::kSockets,
      config_.costs->tx_api + static_cast<uint64_t>(config_.costs->copy_cycles_per_byte *
                                                    static_cast<double>(accepted)));
  return accepted;
}

size_t EngineStack::Recv(ConnId conn, uint8_t* data, size_t len) {
  ConnEntry* entry = Entry(conn);
  if (entry == nullptr) {
    return 0;
  }
  const size_t read = entry->tcp->Recv(data, len);
  app_cores_[entry->app_core]->Charge(
      CpuModule::kSockets, static_cast<uint64_t>(config_.costs->copy_cycles_per_byte *
                                                 static_cast<double>(read)));
  return read;
}

size_t EngineStack::RecvAvailable(ConnId conn) const {
  const ConnEntry* entry = Entry(conn);
  return entry == nullptr ? 0 : entry->tcp->RecvAvailable();
}

size_t EngineStack::SendSpace(ConnId conn) const {
  const ConnEntry* entry = Entry(conn);
  return entry == nullptr ? 0 : entry->tcp->SendSpace();
}

void EngineStack::Close(ConnId conn) {
  ConnEntry* entry = Entry(conn);
  if (entry == nullptr) {
    return;
  }
  stack_cores_[entry->stack_core]->Charge(CpuModule::kTcp,
                                          config_.costs->connection_teardown);
  entry->tcp->Close();
}

void EngineStack::ChargeApp(ConnId conn, uint64_t cycles) {
  ConnEntry* entry = Entry(conn);
  const size_t core = entry == nullptr ? 0 : entry->app_core;
  app_cores_[core]->Charge(
      CpuModule::kApp, static_cast<uint64_t>(static_cast<double>(cycles) *
                                             config_.costs->app_interference_factor));
}

// --- NIC receive path --------------------------------------------------------

void EngineStack::DrainRxQueue(int queue) {
  RxQueueState& rq = rx_queues_[static_cast<size_t>(queue)];
  if (rq.draining) {
    return;  // The pending burst's continuation re-drains.
  }
  if (shared_cores_ && app_loops_[static_cast<size_t>(queue)]->draining()) {
    return;  // The app dispatch re-drains when it has run.
  }
  Core* core = stack_cores_[static_cast<size_t>(queue)];
  const StackCostModel& costs = *config_.costs;
  rq.batch.clear();
  TimeNs done = 0;
  while (rq.batch.size() < kRxBurst) {
    PacketPtr pkt = nic_->PopRx(queue);
    if (!pkt) {
      break;
    }
    // Bounded backlog: a real stack's softirq queue overflows under
    // persistent overload.
    if (core->busy_until() - sim_->Now() > kMaxBacklog) {
      if (LatencyTracer* lt = sim_->context().latency_sink()) {
        lt->Abandon(pkt->lat_id);
      }
      continue;
    }
    // Pure ACK / control segments take the short header-only path: no
    // socket hand-off, no copy, a fraction of the header processing.
    if (pkt->payload.empty()) {
      core->Charge(CpuModule::kDriver, costs.rx_driver / 2);
      core->Charge(CpuModule::kIp, costs.rx_ip / 4);
      done = core->Charge(CpuModule::kTcp, costs.rx_tcp / 8);
    } else {
      const uint64_t tcp_cycles =
          costs.rx_tcp + CacheExtraPerPacket() +
          static_cast<uint64_t>(costs.copy_cycles_per_byte *
                                static_cast<double>(pkt->payload.size()));
      core->Charge(CpuModule::kDriver, costs.rx_driver);
      core->Charge(CpuModule::kIp, costs.rx_ip);
      done = core->Charge(CpuModule::kTcp, tcp_cycles);
    }
    rq.batch.push_back(std::move(pkt));
  }
  if (rq.batch.empty()) {
    return;
  }
  // Every packet was charged individually above (identical per-packet cost
  // and completion horizon as serial dispatch); the burst retires with ONE
  // aggregated event instead of one per packet. Packets the burst's TCP
  // processing emits are collected and leave as a single transmit burst —
  // the DPDK poll-loop shape the NAPI/mTCP stacks actually have.
  rq.draining = true;
  sim_->At(done, [this, queue] {
    RxQueueState& q = rx_queues_[static_cast<size_t>(queue)];
    tx_collect_ = true;
    rx_retiring_ = true;
    for (PacketPtr& pkt : q.batch) {
      HandlePacket(queue, std::move(pkt));
    }
    q.batch.clear();
    rx_retiring_ = false;
    tx_collect_ = false;
    FlushTx();
    // The burst's app events wake their loops together (epoll wakes once
    // with many ready events).
    for (auto& loop : app_loops_) {
      loop->Wake();
    }
    q.draining = false;
    // The ring may still hold packets: a full burst leaves the remainder
    // behind, and the NIC only notifies on push-to-empty.
    DrainRxQueue(queue);
  });
}

void EngineStack::HandlePacket(int queue, PacketPtr pkt) {
  if (LatencyTracer* lt = sim_->context().latency_sink()) {
    // Journey ends at the stack's protocol processing horizon, whether the
    // segment is consumed, accepts a connection, or is dropped as stale.
    lt->Finish(pkt->lat_id, LatencyStage::kFpRx, sim_->Now());
  }
  const FlowKey key{pkt->tcp.dst_port, pkt->ip.src, pkt->tcp.src_port};
  auto it = demux_.find(key);
  if (it != demux_.end()) {
    ConnEntry* entry = Entry(it->second);
    if (entry != nullptr) {
      entry->tcp->HandlePacket(*pkt);
    }
    return;
  }
  // New connection?
  if (pkt->tcp.syn() && !pkt->tcp.ack_flag() &&
      listeners_.count(pkt->tcp.dst_port) != 0) {
    const ConnId id = next_conn_++;
    ConnEntry entry;
    entry.stack_core = static_cast<size_t>(queue);
    entry.app_core = shared_cores_ ? entry.stack_core : next_app_core_rr_++ % app_cores_.size();
    entry.passive = true;
    entry.tcp = std::make_unique<TcpConnection>(
        sim_, this, config_.tcp, nic_->ip(), pkt->tcp.dst_port, pkt->ip.src,
        pkt->tcp.src_port, static_cast<uint32_t>(rng_.Next()));
    entry.tcp->opaque = id;
    TcpConnection* tcp = entry.tcp.get();
    demux_[key] = id;
    ports_.Acquire(pkt->tcp.dst_port);
    conns_[id] = std::move(entry);
    stack_cores_[static_cast<size_t>(queue)]->Charge(CpuModule::kTcp,
                                                     config_.costs->connection_setup);
    tcp->AcceptSyn(*pkt);
  }
  // Otherwise: stale segment for a dead connection; drop.
}

// --- Engine host callbacks ----------------------------------------------------

void EngineStack::EmitPacket(TcpConnection* conn, PacketPtr pkt) {
  ConnEntry* entry = Entry(IdOf(conn));
  Core* core = stack_cores_[entry == nullptr ? 0 : entry->stack_core];
  const StackCostModel& costs = *config_.costs;
  uint64_t cycles;
  if (pkt->payload.empty()) {
    // Pure ACK / control segment: header-only work.
    cycles = costs.tx_driver + costs.tx_ip + costs.tx_tcp / 4;
  } else {
    cycles = costs.tx_driver + costs.tx_ip + costs.tx_tcp + CacheExtraPerPacket() +
             static_cast<uint64_t>(costs.copy_cycles_per_byte *
                                   static_cast<double>(pkt->payload.size()));
  }
  core->Charge(CpuModule::kDriver, costs.tx_driver);
  const TimeNs done = core->Charge(CpuModule::kTcp, cycles - costs.tx_driver);
  LatencyTracer* lt = sim_->context().latency_sink();
  if (tx_collect_) {
    // Inside an RX burst continuation or a shared-core app dispatch: CPU
    // cost is charged above as usual, but the packet joins the burst's
    // single transmit flush instead of scheduling its own departure event
    // (NIC DMA is asynchronous with the descriptor-write the charge models).
    if (lt != nullptr) {
      // Leaves with the burst flush at this same instant: zero-width fp-tx.
      pkt->lat_id = lt->Begin(sim_->Now());
      lt->Stamp(pkt->lat_id, LatencyStage::kFpTx, sim_->Now());
    }
    tx_batch_.push_back(std::move(pkt));
    return;
  }
  if (lt != nullptr) {
    pkt->lat_id = lt->Begin(sim_->Now());
  }
  sim_->At(done, [this, pkt = std::move(pkt)]() mutable {
    if (LatencyTracer* tracer = sim_->context().latency_sink()) {
      // TX-side protocol processing ends when the descriptor hits the NIC.
      tracer->Stamp(pkt->lat_id, LatencyStage::kFpTx, sim_->Now());
    }
    nic_->Transmit(std::move(pkt));
  });
}

void EngineStack::OnConnected(TcpConnection* conn) {
  ConnEntry* entry = Entry(IdOf(conn));
  if (entry == nullptr) {
    return;
  }
  PendingEvent event{entry->passive ? PendingEvent::Kind::kAccepted
                                    : PendingEvent::Kind::kConnected,
                     IdOf(conn)};
  event.port = conn->local_port();
  RaiseEvent(entry->app_core, event);
}

void EngineStack::OnConnectFailed(TcpConnection* conn) {
  const ConnId id = IdOf(conn);
  ConnEntry* entry = Entry(id);
  if (entry == nullptr) {
    return;
  }
  demux_.erase(FlowKey{conn->local_port(), conn->remote_ip(), conn->remote_port()});
  ports_.Release(conn->local_port());
  const size_t app_core = entry->app_core;
  // Defer destruction: this callback can arrive from inside the engine.
  std::shared_ptr<TcpConnection> keep_alive(entry->tcp.release());
  conns_.erase(id);
  sim_->After(0, [keep_alive] {});
  PendingEvent event{PendingEvent::Kind::kConnected, id};
  event.ok = false;
  RaiseEvent(app_core, event);
}

void EngineStack::OnDataAvailable(TcpConnection* conn, size_t bytes) {
  ConnEntry* entry = Entry(IdOf(conn));
  if (entry == nullptr) {
    return;
  }
  PendingEvent event{PendingEvent::Kind::kData, IdOf(conn)};
  event.bytes = bytes;
  RaiseEvent(entry->app_core, event);
}

void EngineStack::OnSendSpace(TcpConnection* conn, size_t bytes) {
  ConnEntry* entry = Entry(IdOf(conn));
  if (entry == nullptr || handler_ == nullptr) {
    return;
  }
  PendingEvent event{PendingEvent::Kind::kSendSpace, IdOf(conn)};
  event.bytes = bytes;
  RaiseEvent(entry->app_core, event);
}

void EngineStack::OnRemoteClose(TcpConnection* conn) {
  ConnEntry* entry = Entry(IdOf(conn));
  if (entry == nullptr) {
    return;
  }
  RaiseEvent(entry->app_core, PendingEvent{PendingEvent::Kind::kRemoteClosed, IdOf(conn)});
}

void EngineStack::OnClosed(TcpConnection* conn) {
  const ConnId id = IdOf(conn);
  ConnEntry* entry = Entry(id);
  if (entry == nullptr) {
    return;
  }
  demux_.erase(
      FlowKey{conn->local_port(), conn->remote_ip(), conn->remote_port()});
  ports_.Release(conn->local_port());
  const size_t app_core = entry->app_core;
  // Keep the TcpConnection alive until the deferred event dispatch; move it
  // out of the table now so new connections can reuse the 4-tuple.
  auto keep_alive = std::shared_ptr<TcpConnection>(entry->tcp.release());
  conns_.erase(id);
  PendingEvent event{PendingEvent::Kind::kClosed, id};
  RaiseEvent(app_core, event);
  sim_->After(0, [keep_alive] {});  // Destroyed after the current event.
}

// --- Event delivery ------------------------------------------------------------

void EngineStack::RaiseEvent(size_t app_core, const PendingEvent& event) {
  app_events_[app_core].push_back(event);
  if (!rx_retiring_) {
    app_loops_[app_core]->Wake();
  }
}

void EngineStack::DispatchBatch(const std::vector<PendingEvent>& batch) {
  // On a shared core the dispatch's sends leave as one burst, like an RX
  // burst's ACKs. On a dedicated stack core each waits for its own charge.
  tx_collect_ = shared_cores_;
  for (const PendingEvent& event : batch) {
    DispatchEvent(event);
  }
  tx_collect_ = false;
  FlushTx();
}

void EngineStack::FlushTx() {
  if (!tx_batch_.empty()) {
    nic_->TransmitBurst(tx_batch_.data(), tx_batch_.size());
    tx_batch_.clear();
  }
}

void EngineStack::DispatchEvent(const PendingEvent& event) {
  if (handler_ == nullptr) {
    return;
  }
  switch (event.kind) {
    case PendingEvent::Kind::kData:
      handler_->OnData(event.conn, event.bytes);
      return;
    case PendingEvent::Kind::kSendSpace:
      handler_->OnSendSpace(event.conn, event.bytes);
      return;
    case PendingEvent::Kind::kConnected:
      handler_->OnConnected(event.conn, event.ok);
      return;
    case PendingEvent::Kind::kAccepted:
      handler_->OnAccepted(event.conn, event.port);
      return;
    case PendingEvent::Kind::kRemoteClosed:
      handler_->OnRemoteClosed(event.conn);
      return;
    case PendingEvent::Kind::kClosed:
      handler_->OnClosed(event.conn);
      return;
  }
}

// --- Factories -----------------------------------------------------------------

EngineStackConfig LinuxStackConfig() {
  EngineStackConfig config;
  config.stack_cores = 0;  // In-kernel: shares application cores.
  config.costs = &LinuxCostModel();
  config.tcp.cc = CcAlgorithm::kDctcpWindow;
  config.wakeup_latency = Us(3);  // Softirq + scheduler wakeup.
  return config;
}

EngineStackConfig IxStackConfig() {
  EngineStackConfig config;
  config.stack_cores = 0;  // Run-to-completion on app cores.
  config.costs = &IxCostModel();
  config.tcp.cc = CcAlgorithm::kDctcpWindow;
  config.wakeup_latency = 0;
  return config;
}

EngineStackConfig MtcpStackConfig(int stack_cores) {
  EngineStackConfig config;
  config.stack_cores = stack_cores;  // Dedicated user-level stack cores.
  config.costs = &MtcpCostModel();
  config.tcp.cc = CcAlgorithm::kDctcpWindow;
  config.wakeup_latency = 0;
  config.event_batch = 32;       // Collects packets into large batches
  config.batch_timeout = Us(100);  // (paper §5.4).
  return config;
}

}  // namespace tas
