// Simulated multi-queue NIC with receive-side scaling.
//
// Models what TAS needs from an XL710-class adapter (paper §3.4, §4):
// multiple RX descriptor rings, an RSS redirection table steering flows to
// rings by hash, drop-on-full rings, and an eventfd-like notification that
// wakes a blocked polling core when a packet lands on an empty ring. The
// slow path rewrites the redirection table during core scale up/down.
#ifndef SRC_NIC_NIC_H_
#define SRC_NIC_NIC_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/fault/impairment.h"
#include "src/net/link.h"
#include "src/net/topology.h"
#include "src/trace/metric_registry.h"
#include "src/util/fifo.h"

namespace tas {

struct NicConfig {
  int num_queues = 1;
  size_t ring_entries = 1024;  // Per-RX-queue capacity.
};

class SimNic : public NetDevice {
 public:
  // Attaches to the host port's link end; all received frames flow into the
  // RSS-selected ring.
  SimNic(Simulator* sim, HostPort* port, const NicConfig& config);

  IpAddr ip() const { return ip_; }
  MacAddr mac() const { return mac_; }
  int num_queues() const { return static_cast<int>(rings_.size()); }

  // --- Wire side -----------------------------------------------------------
  void Receive(PacketPtr pkt) override;
  void Transmit(PacketPtr pkt);

  // --- Fault-injection hooks -------------------------------------------------
  // RX-side impairment pipeline (device stalls, PCIe drops), applied to
  // each received frame after the checksum check, before RSS ring
  // placement; mutable mid-run.
  Impairment* AddRxImpairment(const ImpairmentSpec& spec) { return rx_pipeline_.Add(spec); }
  bool RemoveRxImpairment(const Impairment* impairment) {
    return rx_pipeline_.Remove(impairment);
  }
  ImpairmentPipeline& rx_pipeline() { return rx_pipeline_; }

  // --- Host side -----------------------------------------------------------
  PacketPtr PopRx(int queue);
  // DPDK rte_eth_rx_burst-style burst receive: moves up to `max` packets
  // from the ring onto the end of `out` and returns how many were taken.
  size_t PopRxBurst(int queue, size_t max, std::vector<PacketPtr>* out);
  // Transmit a descriptor array; entries are consumed (left null).
  void TransmitBurst(PacketPtr* pkts, size_t count);
  size_t RxQueueLen(int queue) const { return rings_[queue]->pkts.size(); }
  bool RxEmpty(int queue) const { return rings_[queue]->pkts.empty(); }

  // Notification fired when a packet is enqueued while the ring was empty
  // (models the eventfd wakeup for blocked fast-path cores).
  void SetRxNotify(int queue, std::function<void()> fn);

  // --- RSS control (trusted control plane) ----------------------------------
  void SetRedirectionEntry(size_t entry, int queue);
  // Spreads all table entries round-robin over queues [0, active_queues).
  void SetActiveQueues(int active_queues);
  int RedirectionEntryFor(const Packet& pkt) const;
  int RedirectionEntryQueue(int entry) const { return redirection_[static_cast<size_t>(entry)]; }
  size_t rss_entries() const { return redirection_.size(); }

  uint64_t rx_drops() const { return rx_drops_; }
  uint64_t rx_packets() const { return rx_packets_; }
  uint64_t tx_packets() const { return tx_packets_; }
  // Frames the (modeled) hardware checksum verification discarded because a
  // corruption impairment damaged them on the wire.
  uint64_t rx_checksum_drops() const { return rx_checksum_drops_; }
  // Frames discarded by the RX fault pipeline (device-level faults).
  uint64_t rx_fault_drops() const { return rx_fault_drops_; }

  // Registers device counters and per-ring occupancy gauges under "<prefix>.".
  void RegisterMetrics(MetricRegistry* registry, const std::string& prefix);

 private:
  // RSS redirection table size (XL710 uses 512, 82599 uses 128).
  static constexpr size_t kRssTableEntries = 128;
  // Seed of the RX fault RNG; every NIC starts from the same stream.
  static constexpr uint64_t kRngSeed = 0x71C0;

  struct Ring {
    Fifo<PacketPtr> pkts;
    std::function<void()> notify;
    size_t depth_hw = 0;  // High-water occupancy (latency-anatomy gauge).
  };

  void DeliverToRing(PacketPtr pkt);

  Simulator* sim_;
  LinkEnd tx_end_;
  IpAddr ip_;
  MacAddr mac_;
  NicConfig config_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<int> redirection_;  // Entry -> queue.
  ImpairmentPipeline rx_pipeline_;
  Rng rng_;
  uint64_t rx_drops_ = 0;
  uint64_t rx_packets_ = 0;
  uint64_t tx_packets_ = 0;
  uint64_t rx_checksum_drops_ = 0;
  uint64_t rx_fault_drops_ = 0;
};

}  // namespace tas

#endif  // SRC_NIC_NIC_H_
