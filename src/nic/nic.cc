#include "src/nic/nic.h"

#include <algorithm>

#include "src/sim/context.h"
#include "src/trace/latency.h"

namespace tas {

SimNic::SimNic(Simulator* sim, HostPort* port, const NicConfig& config)
    : sim_(sim), tx_end_(port->end), ip_(port->ip), mac_(port->mac), config_(config),
      rng_(kRngSeed) {
  TAS_CHECK(config.num_queues >= 1);
  for (int i = 0; i < config.num_queues; ++i) {
    rings_.emplace_back(std::make_unique<Ring>());
  }
  redirection_.resize(kRssTableEntries);
  entry_hits_.assign(kRssTableEntries, 0);
  SetActiveQueues(config.num_queues);
  port->end.Attach(this);
}

int SimNic::RedirectionEntryFor(const Packet& pkt) const {
  // The symmetric hash sends both directions of a flow to one queue.
  const uint32_t hash =
      SymmetricFlowHash(pkt.ip.src, pkt.tcp.src_port, pkt.ip.dst, pkt.tcp.dst_port);
  return static_cast<int>(hash % redirection_.size());
}

void SimNic::Receive(PacketPtr pkt) {
  ++rx_packets_;
  // Hardware checksum verification: frames a corruption impairment damaged
  // never reach the host (the byte-honest path, LinkConfig::
  // validate_wire_format, flips and rejects the actual wire bits instead).
  if (pkt->corrupt_flips > 0) {
    ++rx_checksum_drops_;
    if (LatencyTracer* lt = sim_->context().latency_sink()) {
      lt->Abandon(pkt->lat_id);
    }
    return;
  }
  if (!rx_pipeline_.empty()) {
    const ImpairmentDecision decision = rx_pipeline_.Apply(*pkt, rng_);
    if (decision.drop) {
      ++rx_fault_drops_;
      if (LatencyTracer* lt = sim_->context().latency_sink()) {
        lt->Abandon(pkt->lat_id);
      }
      return;
    }
    if (decision.duplicate) {
      DeliverToRing(sim_->context().pool().Clone(*pkt));
    }
    if (decision.extra_delay > 0) {
      sim_->After(decision.extra_delay, [this, pkt = std::move(pkt)]() mutable {
        DeliverToRing(std::move(pkt));
      });
      return;
    }
  }
  DeliverToRing(std::move(pkt));
}

void SimNic::DeliverToRing(PacketPtr pkt) {
  const size_t entry = static_cast<size_t>(RedirectionEntryFor(*pkt));
  ++entry_hits_[entry];
  Ring& ring = *rings_[static_cast<size_t>(redirection_[entry])];
  if (ring.pkts.size() >= config_.ring_entries) {
    ++rx_drops_;
    if (LatencyTracer* lt = sim_->context().latency_sink()) {
      lt->Abandon(pkt->lat_id);
    }
    return;
  }
  const bool was_empty = ring.pkts.empty();
  ring.pkts.push_back(std::move(pkt));
  ring.depth_hw = std::max(ring.depth_hw, ring.pkts.size());
  if (was_empty && ring.notify) {
    ring.notify();
  }
}

void SimNic::Transmit(PacketPtr pkt) {
  ++tx_packets_;
  tx_end_.Send(std::move(pkt));
}

PacketPtr SimNic::PopRx(int queue) {
  Ring& ring = *rings_[static_cast<size_t>(queue)];
  if (ring.pkts.empty()) {
    return nullptr;
  }
  PacketPtr pkt = std::move(ring.pkts.front());
  ring.pkts.pop_front();
  if (LatencyTracer* lt = sim_->context().latency_sink()) {
    lt->Stamp(pkt->lat_id, LatencyStage::kNicRxRing, sim_->Now());
  }
  return pkt;
}

size_t SimNic::PopRxBurst(int queue, size_t max, std::vector<PacketPtr>* out) {
  Ring& ring = *rings_[static_cast<size_t>(queue)];
  const size_t n = std::min(max, ring.pkts.size());
  LatencyTracer* lt = sim_->context().latency_sink();
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(ring.pkts.front()));
    ring.pkts.pop_front();
    if (lt != nullptr) {
      // Each burst member's ring wait ends at this gather instant; later
      // stamps charge the batch processing separately (kFpRx).
      lt->Stamp(out->back()->lat_id, LatencyStage::kNicRxRing, sim_->Now());
    }
  }
  return n;
}

void SimNic::TransmitBurst(PacketPtr* pkts, size_t count) {
  // Admit the whole ring's worth before the wire starts: the burst leaves as
  // one serialized train with one delivery event (DPDK tx-burst analogue).
  tx_end_.BeginAdmit();
  for (size_t i = 0; i < count; ++i) {
    Transmit(std::move(pkts[i]));
  }
  tx_end_.EndAdmit();
}

void SimNic::SetRxNotify(int queue, std::function<void()> fn) {
  rings_[static_cast<size_t>(queue)]->notify = std::move(fn);
}

void SimNic::SetRedirectionEntry(size_t entry, int queue) {
  TAS_CHECK(entry < redirection_.size());
  TAS_CHECK(queue >= 0 && queue < num_queues());
  redirection_[entry] = queue;
}

void SimNic::SetActiveQueues(int active_queues) {
  TAS_CHECK(active_queues >= 1 && active_queues <= num_queues());
  for (size_t i = 0; i < redirection_.size(); ++i) {
    redirection_[i] = static_cast<int>(i % static_cast<size_t>(active_queues));
  }
}

void SimNic::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  registry->AddCounter(prefix + ".rx_packets", &rx_packets_);
  registry->AddCounter(prefix + ".tx_packets", &tx_packets_);
  registry->AddCounter(prefix + ".rx_drops", &rx_drops_);
  registry->AddCounter(prefix + ".rx_checksum_drops", &rx_checksum_drops_);
  registry->AddCounter(prefix + ".rx_fault_drops", &rx_fault_drops_);
  for (int q = 0; q < num_queues(); ++q) {
    registry->AddGauge(prefix + ".ring." + std::to_string(q) + ".depth",
                       [this, q] { return static_cast<double>(RxQueueLen(q)); });
    registry->AddGauge(prefix + ".ring." + std::to_string(q) + ".depth_hw", [this, q] {
      return static_cast<double>(rings_[static_cast<size_t>(q)]->depth_hw);
    });
  }
  // Device-level RX fault pipeline totals. Function-backed (not pointer
  // views): FaultInjector adds and removes impairments mid-run, and removal
  // folds the retiree's stats into the pipeline's retired accumulator.
  registry->AddCounterFn(prefix + ".rx_fault.processed",
                         [this] { return rx_pipeline_.TotalProcessed(); });
  registry->AddCounterFn(prefix + ".rx_fault.dropped",
                         [this] { return rx_pipeline_.TotalDropped(); });
  registry->AddCounterFn(prefix + ".rx_fault.corrupted",
                         [this] { return rx_pipeline_.TotalCorrupted(); });
  registry->AddCounterFn(prefix + ".rx_fault.reordered",
                         [this] { return rx_pipeline_.TotalReordered(); });
  registry->AddCounterFn(prefix + ".rx_fault.duplicated",
                         [this] { return rx_pipeline_.TotalDuplicated(); });
}

}  // namespace tas
