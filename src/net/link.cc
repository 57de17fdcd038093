#include "src/net/link.h"

#include "src/sim/context.h"
#include "src/trace/latency.h"

namespace tas {
namespace {

// splitmix64 finalizer: spreads endpoint identities (small IPs, switch
// indices) over the full seed space before they are XOR-folded together.
uint64_t MixIdentity(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Corruption damages bits the checksums actually cover: anywhere past the
// Ethernet header (IPv4 header -> IP checksum, TCP header/payload -> TCP
// checksum). Flipping unprotected Ethernet bytes would let a "corrupted"
// frame parse cleanly, which is not the fault being modeled.
constexpr size_t kEthernetHeaderBytes = 14;

void FlipWireBits(std::vector<uint8_t>& bytes, uint32_t flips, Rng& rng) {
  if (bytes.size() <= kEthernetHeaderBytes) {
    return;
  }
  const uint64_t protected_bits = (bytes.size() - kEthernetHeaderBytes) * 8;
  for (uint32_t i = 0; i < flips; ++i) {
    const uint64_t bit = rng.NextUint64(protected_bits);
    bytes[kEthernetHeaderBytes + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

}  // namespace

Link::Link(Simulator* sim, const LinkConfig& config)
    : sim_(sim), config_(config) {
  TAS_CHECK(config.gbps > 0);
  explicit_seed_ = config.rng_seed != 0;
  base_seed_ = explicit_seed_ ? config.rng_seed : 0xC0FFEEull;
  ReseedDirections();
  for (Direction& d : dir_) {
    d.pipeline.AddAll(config_.faults);
  }
}

void Link::ReseedDirections() {
  for (int side = 0; side < 2; ++side) {
    // Each direction owns its stream, so the two never entangle their draws.
    dir_[side].rng =
        Rng(base_seed_ + static_cast<uint64_t>(side) * 0x632BE59BD9B4E019ull);
  }
}

void Link::MixDefaultSeed(uint64_t identity) {
  if (explicit_seed_) {
    return;
  }
  base_seed_ ^= MixIdentity(identity);
  ReseedDirections();
}

void Link::Attach(int side, NetDevice* device) {
  TAS_CHECK(side == 0 || side == 1);
  // The device at side s receives packets sent from side 1-s.
  dir_[1 - side].dst = device;
}

void Link::Send(int from_side, PacketPtr pkt) {
  TAS_CHECK(from_side == 0 || from_side == 1);
  Direction& d = dir_[from_side];

  if (!d.pipeline.empty()) {
    const ImpairmentDecision decision = d.pipeline.Apply(*pkt, d.rng);
    if (decision.drop) {
      if (decision.dropped_by != nullptr &&
          decision.dropped_by->kind() == ImpairmentKind::kLinkDown) {
        d.stats.drops_down++;
      } else {
        d.stats.drops_induced++;
      }
      if (LatencyTracer* lt = sim_->context().latency_sink()) {
        lt->Abandon(pkt->lat_id);
      }
      return;
    }
    if (pkt->corrupt_flips > 0) {
      d.stats.corrupt_marked++;
    }
    if (decision.duplicate) {
      d.stats.duplicated++;
      Enqueue(from_side, sim_->context().pool().Clone(*pkt));
    }
    if (decision.extra_delay > 0) {
      // Hold the packet out of the FIFO so later sends overtake it, then
      // re-admit directly (held packets are not re-impaired). The event node
      // owns the packet while in flight; events still pending when the
      // simulator is destroyed return it to the pool.
      d.stats.reordered++;
      sim_->After(decision.extra_delay, [this, from_side, pkt = std::move(pkt)]() mutable {
        Enqueue(from_side, std::move(pkt));
      });
      return;
    }
  }
  Enqueue(from_side, std::move(pkt));
}

void Link::Enqueue(int from_side, PacketPtr pkt) {
  Direction& d = dir_[from_side];
  // Frames whose serialization started are truly gone from the buffer.
  while (!d.pending_serialize.empty() && d.pending_serialize.front() <= sim_->Now()) {
    d.pending_serialize.pop_front();
  }
  // Occupancy counts waiting frames plus admitted-but-unserialized burst
  // frames: burst delivery must not make the buffer look emptier than the
  // per-frame transmitter would (drop-tail and ECN depend on it).
  const size_t occupancy = d.queue.size() + d.pending_serialize.size();
  d.stats.queue_pkts.Add(static_cast<double>(occupancy));
  if (occupancy >= config_.queue_limit_pkts) {
    d.stats.drops_overflow++;
    if (LatencyTracer* lt = sim_->context().latency_sink()) {
      lt->Abandon(pkt->lat_id);
    }
    return;
  }
  d.stats.queue_hw_pkts = std::max(d.stats.queue_hw_pkts, occupancy + 1);
  if (config_.ecn_threshold_pkts > 0 && occupancy >= config_.ecn_threshold_pkts &&
      pkt->ip.ecn != Ecn::kNotEct) {
    pkt->ip.ecn = Ecn::kCe;
    d.stats.ecn_marks++;
  }
  if (config_.validate_wire_format) {
    auto bytes = Serialize(*pkt);
    if (pkt->corrupt_flips > 0) {
      FlipWireBits(bytes, pkt->corrupt_flips, d.rng);
    }
    auto parsed = Parse(bytes);
    if (!parsed.has_value()) {
      // Only injected corruption may fail the round-trip; anything else is a
      // stack bug the validation mode exists to catch.
      TAS_CHECK(pkt->corrupt_flips > 0)
          << "packet failed wire round-trip: " << pkt->Describe();
      d.stats.drops_corrupt++;
      if (LatencyTracer* lt = sim_->context().latency_sink()) {
        lt->Abandon(pkt->lat_id);
      }
      return;
    }
    parsed->enqueued_at = pkt->enqueued_at;
    parsed->ingress_port = pkt->ingress_port;
    // Survived the checksums despite flips (possible: a flip pair can cancel
    // in the ones'-complement sum); keep the mark so the NIC model drops it.
    parsed->corrupt_flips = pkt->corrupt_flips;
    parsed->lat_id = pkt->lat_id;  // Sim metadata, not wire bytes.
    PacketPtr reparsed = sim_->context().pool().Acquire();
    *reparsed = std::move(*parsed);
    pkt = std::move(reparsed);
  }
  d.queue.push_back(std::move(pkt));
  if (d.admit_depth == 0) {
    MaybeStartTransmit(from_side);
  }
}

void Link::MaybeStartTransmit(int from_side) {
  Direction& d = dir_[from_side];
  if (d.transmitting || d.queue.empty()) {
    return;
  }
  if (sim_->Now() >= d.busy_until) {
    StartTransmit(from_side);
  } else {
    // Wire still serializing the previous burst; wake up when it frees.
    d.transmitting = true;
    sim_->At(d.busy_until, [this, from_side] { StartTransmit(from_side); });
  }
}

void Link::StartTransmit(int dir_index) {
  Direction& d = dir_[dir_index];
  if (d.queue.empty()) {
    d.transmitting = false;
    return;
  }
  // Serialize up to kBurstPkts frames back to back (time-bounded so large
  // frames don't defer delivery far) and deliver them with ONE event when
  // the last frame lands. Per-frame wire time, FIFO order, and the
  // transmitter-busy window are identical to per-frame dispatch; only the
  // delivery instant of leading frames moves, by less than kBurstMaxNs.
  const TimeNs now = sim_->Now();
  LatencyTracer* lt = sim_->context().latency_sink();
  size_t n = 0;
  TimeNs serialize_total = 0;
  while (n < kBurstPkts && !d.queue.empty()) {
    const size_t wire_bytes = d.queue.front()->WireBytes();
    const TimeNs serialize = TransmitTimeNs(wire_bytes, config_.gbps);
    if (n > 0 && serialize_total + serialize > kBurstMaxNs) {
      break;
    }
    PacketPtr pkt = std::move(d.queue.front());
    d.queue.pop_front();
    d.stats.tx_packets++;
    d.stats.tx_bytes += wire_bytes;
    if (d.pcap != nullptr) {
      // Stamp each frame at its own wire-start time, as before.
      d.pcap->Record(now + serialize_total, *pkt);
    }
    if (lt != nullptr) {
      // Queue wait ends at this frame's own wire-start instant (same clock
      // the pcap uses); the remainder until delivery is kLinkWire.
      lt->Stamp(pkt->lat_id, LatencyStage::kLinkQueue, now + serialize_total);
    }
    if (n > 0) {
      d.pending_serialize.push_back(now + serialize_total);
    }
    serialize_total += serialize;
    d.wire.push_back(std::move(pkt));
    ++n;
  }
  d.busy_until = now + serialize_total;
  sim_->After(serialize_total + config_.propagation_delay, [this, dir_index, n] {
    Direction& dd = dir_[dir_index];
    LatencyTracer* tracer = sim_->context().latency_sink();
    for (size_t i = 0; i < n && !dd.wire.empty(); ++i) {
      PacketPtr pkt = std::move(dd.wire.front());
      dd.wire.pop_front();
      if (tracer != nullptr) {
        // Serialize + propagation (plus any burst-mate deferral) charged to
        // the wire stage; accumulates across hops on multi-link paths.
        tracer->Stamp(pkt->lat_id, LatencyStage::kLinkWire, sim_->Now());
      }
      if (dd.dst != nullptr) {
        dd.dst->Receive(std::move(pkt));
      }
    }
  });
  if (d.queue.empty()) {
    d.transmitting = false;  // Idle; Enqueue re-arms at busy_until if needed.
  } else {
    d.transmitting = true;
    sim_->After(serialize_total, [this, dir_index] { StartTransmit(dir_index); });
  }
}

void Link::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  for (int side = 0; side < 2; ++side) {
    const std::string p = prefix + ".d" + std::to_string(side) + ".";
    const LinkStats& s = dir_[side].stats;
    registry->AddCounter(p + "tx_packets", &s.tx_packets);
    registry->AddCounter(p + "tx_bytes", &s.tx_bytes);
    registry->AddCounter(p + "drops_overflow", &s.drops_overflow);
    registry->AddCounter(p + "drops_induced", &s.drops_induced);
    registry->AddCounter(p + "drops_down", &s.drops_down);
    registry->AddCounter(p + "drops_corrupt", &s.drops_corrupt);
    registry->AddCounter(p + "corrupt_marked", &s.corrupt_marked);
    registry->AddCounter(p + "duplicated", &s.duplicated);
    registry->AddCounter(p + "reordered", &s.reordered);
    registry->AddCounter(p + "ecn_marks", &s.ecn_marks);
    registry->AddGauge(p + "queue_pkts",
                       [this, side] { return static_cast<double>(QueueLen(side)); });
    registry->AddGauge(p + "queue_hw_pkts", [this, side] {
      return static_cast<double>(dir_[side].stats.queue_hw_pkts);
    });
    // Egress fault pipeline totals (survive mid-run impairment removal via
    // the pipeline's retired accumulator).
    ImpairmentPipeline* pl = &dir_[side].pipeline;
    registry->AddCounterFn(p + "fault.processed", [pl] { return pl->TotalProcessed(); });
    registry->AddCounterFn(p + "fault.dropped", [pl] { return pl->TotalDropped(); });
    registry->AddCounterFn(p + "fault.corrupted", [pl] { return pl->TotalCorrupted(); });
    registry->AddCounterFn(p + "fault.reordered", [pl] { return pl->TotalReordered(); });
    registry->AddCounterFn(p + "fault.duplicated", [pl] { return pl->TotalDuplicated(); });
  }
}

}  // namespace tas
