// Full-duplex point-to-point link with per-direction FIFO queues, DCTCP-style
// ECN marking at a configurable instantaneous queue threshold, drop-tail
// overflow, and a per-direction fault-injection pipeline (src/fault): loss
// (Bernoulli or Gilbert-Elliott bursts), corruption, reordering, duplication,
// and administrative link down/up — the substrate behind the packet-loss
// experiment (paper Fig 7) and the chaos test suite.
#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <memory>

#include "src/fault/impairment.h"
#include "src/net/packet.h"
#include "src/net/pcap.h"
#include "src/sim/simulator.h"
#include "src/trace/metric_registry.h"
#include "src/util/fifo.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace tas {

// Anything that can accept a delivered packet.
class NetDevice {
 public:
  virtual ~NetDevice() = default;
  virtual void Receive(PacketPtr pkt) = 0;
};

struct LinkConfig {
  double gbps = 10.0;
  TimeNs propagation_delay = Us(1);
  size_t queue_limit_pkts = 1024;
  // Mark CE on ECT packets when the queue holds >= this many packets at
  // enqueue. 0 disables marking. The paper's switch marks at 65 packets.
  size_t ecn_threshold_pkts = 0;
  // Egress impairments, instantiated per direction (each direction gets its
  // own instances, so burst-loss state and stats stay independent).
  FaultConfig faults;
  // Seed for the link's fault/validation RNG. 0 (the default) derives the
  // seed from the link's endpoint identities as the topology attaches them
  // (Link::MixDefaultSeed), so equal topologies get equal seeds regardless of
  // how many links other experiments in the process created before. Set
  // explicitly only when a scenario must decorrelate otherwise-identical
  // links (e.g. two parallel paths between the same endpoints).
  uint64_t rng_seed = 0;
  // Debug/validation mode: round-trip every packet through the byte-level
  // wire encoding (Serialize -> Parse, including checksums) and deliver the
  // parsed copy. Slow; catches any header field the stacks forget to set,
  // and is where corruption impairments flip real wire bits.
  bool validate_wire_format = false;
};

struct LinkStats {
  uint64_t tx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t drops_overflow = 0;
  uint64_t drops_induced = 0;  // Dropped by loss impairments.
  uint64_t drops_down = 0;     // Dropped while administratively down.
  uint64_t drops_corrupt = 0;  // Corrupted frames the wire checksum rejected.
  uint64_t corrupt_marked = 0; // Frames a corruption impairment damaged.
  uint64_t duplicated = 0;     // Extra copies injected.
  uint64_t reordered = 0;      // Frames held back to overtake.
  uint64_t ecn_marks = 0;
  RunningStats queue_pkts;  // Queue occupancy sampled at each enqueue.
  size_t queue_hw_pkts = 0;  // High-water occupancy (including the admit).
};

class Link {
 public:
  Link(Simulator* sim, const LinkConfig& config);

  // side is 0 or 1. A packet sent from side s is delivered to the device
  // attached at side 1-s.
  void Attach(int side, NetDevice* device);

  // Folds an endpoint identity (host IP, switch index) into the default RNG
  // seed and re-derives both directions' streams. The topology calls this as
  // it wires each endpoint, making default link seeds a pure function of the
  // topology instead of process-global link creation order. XOR-commutative,
  // so the two endpoints may mix in either order. No-op when the config set
  // an explicit rng_seed. Must not be called after traffic starts.
  void MixDefaultSeed(uint64_t identity);

  void Send(int from_side, PacketPtr pkt);

  // Same-instant burst admission (NIC TX rings and switch flushes hand the
  // wire several frames in one call): between BeginAdmit and EndAdmit,
  // admitted frames do not start the transmitter; EndAdmit starts it once,
  // so the whole wave serializes as one burst with one delivery event
  // instead of the first frame leaving alone. Purely an event-count
  // optimization — admission order, occupancy, and wire timing are those of
  // back-to-back Send calls. Nestable.
  void BeginAdmit(int from_side) { ++dir_[from_side].admit_depth; }
  void EndAdmit(int from_side) {
    Direction& d = dir_[from_side];
    if (--d.admit_depth == 0) {
      MaybeStartTransmit(from_side);
    }
  }

  // Egress buffer occupancy: waiting frames plus burst-admitted frames whose
  // wire serialization has not started yet (at most kBurstPkts - 1).
  size_t QueueLen(int from_side) const {
    const Direction& d = dir_[from_side];
    size_t unserialized = 0;
    for (size_t i = d.pending_serialize.size();
         i > 0 && d.pending_serialize[i - 1] > sim_->Now(); --i) {
      ++unserialized;
    }
    return d.queue.size() + unserialized;
  }
  const LinkStats& stats(int from_side) const { return dir_[from_side].stats; }
  const LinkConfig& config() const { return config_; }

  // Registers both directions' counters and a live queue-depth gauge under
  // "<prefix>.d0." / "<prefix>.d1." (DESIGN.md §7 naming).
  void RegisterMetrics(MetricRegistry* registry, const std::string& prefix);

  // --- Fault-injection hooks -------------------------------------------------
  // Adds an impairment to one direction's egress pipeline; the returned
  // handle stays valid until RemoveImpairment. Safe mid-run (FaultInjector
  // windows use exactly this).
  Impairment* AddImpairment(int side, const ImpairmentSpec& spec) {
    return dir_[side].pipeline.Add(spec);
  }
  Impairment* AddImpairment(int side, std::unique_ptr<Impairment> impairment) {
    return dir_[side].pipeline.Add(std::move(impairment));
  }
  bool RemoveImpairment(int side, const Impairment* impairment) {
    return dir_[side].pipeline.Remove(impairment);
  }
  ImpairmentPipeline& pipeline(int side) { return dir_[side].pipeline; }

  // Administrative link state; affects both directions. Packets already on
  // the wire still arrive (they left before the cut); packets queued behind
  // the gate are dropped at Send time with stats attribution.
  void SetDown(bool down) {
    for (Direction& d : dir_) {
      if (d.down_gate == nullptr) {
        d.down_gate = static_cast<LinkDownImpairment*>(
            d.pipeline.AddFront(std::make_unique<LinkDownImpairment>(down)));
      } else {
        d.down_gate->SetDown(down);
      }
    }
  }
  bool down() const {
    return dir_[0].down_gate != nullptr && dir_[0].down_gate->down();
  }

  // Attaches a trace writer to one direction; every frame put on the wire is
  // recorded at transmit time. Pass nullptr to detach.
  void AttachPcap(int from_side, PcapWriter* pcap) { dir_[from_side].pcap = pcap; }

 private:
  // Frames serialized back-to-back per transmit continuation and delivered
  // by ONE event at the last frame's arrival (the receive-side completion
  // batching real NICs do). Per-frame serialization cost and FIFO order are
  // those of per-frame delivery; only the delivery instant of leading frames
  // moves, by at most the burst's wire time.
  static constexpr size_t kBurstPkts = 16;
  // Upper bound on one burst's total serialization time, so large frames
  // don't defer delivery far (a 64B RPC burst spans ~1.5us at 10G; bulk
  // 1448B frames cut over to 1-2 per burst).
  static constexpr TimeNs kBurstMaxNs = Us(2);

  struct Direction {
    Fifo<PacketPtr> queue;
    // True while a StartTransmit continuation is scheduled or running. When
    // the queue drains the transmitter goes idle WITHOUT scheduling a
    // serialize-done event; busy_until records when the wire frees up and
    // the next Enqueue re-arms at that time (saves one event per packet on
    // non-saturated links).
    bool transmitting = false;
    TimeNs busy_until = 0;
    // Frames on the wire, FIFO: each delivery event pops its burst's count
    // off the front. Owned here so sim teardown recycles them via the pool.
    Fifo<PacketPtr> wire;
    // Wire-start times of admitted-but-not-yet-serialized frames. They still
    // occupy the egress buffer physically, so occupancy-driven decisions
    // (drop-tail, ECN, queue stats) count them; drained lazily at Enqueue.
    Fifo<TimeNs> pending_serialize;
    int admit_depth = 0;  // >0: hold transmitter start until EndAdmit.
    NetDevice* dst = nullptr;
    LinkStats stats;
    ImpairmentPipeline pipeline;
    LinkDownImpairment* down_gate = nullptr;   // Owned by pipeline.
    PcapWriter* pcap = nullptr;                // Not owned.
    // Per-direction fault/validation RNG, so one direction's traffic never
    // shifts the other's draws.
    Rng rng;
  };

  // Re-creates both directions' RNGs from base_seed_ (construction and each
  // MixDefaultSeed call).
  void ReseedDirections();
  // FIFO admission after impairments: occupancy sampling, overflow drop, ECN
  // marking, optional wire-format validation.
  void Enqueue(int from_side, PacketPtr pkt);
  // Kicks the transmitter if it is idle and frames are waiting (immediately,
  // or at busy_until while the wire finishes the previous serialization).
  void MaybeStartTransmit(int from_side);
  void StartTransmit(int dir_index);

  Simulator* sim_;
  LinkConfig config_;
  uint64_t base_seed_;
  bool explicit_seed_;
  Direction dir_[2];
};

// A (link, side) pair: the plug a NIC or switch port transmits into.
struct LinkEnd {
  Link* link = nullptr;
  int side = 0;

  void Send(PacketPtr pkt) const { link->Send(side, std::move(pkt)); }
  void BeginAdmit() const { link->BeginAdmit(side); }
  void EndAdmit() const { link->EndAdmit(side); }
  void Attach(NetDevice* device) const { link->Attach(side, device); }
  bool valid() const { return link != nullptr; }
};

}  // namespace tas

#endif  // SRC_NET_LINK_H_
