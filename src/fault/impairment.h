// Fault-injection impairments: a pluggable pipeline of network misbehaviors
// (Bernoulli loss, Gilbert-Elliott burst loss, corruption, reordering,
// duplication, administrative link down) applied at Link egress and SimNic RX.
//
// Everything is deterministic: impairments draw from the Rng their owner
// passes in (the Link's / NIC's seeded generator), so the same seed and fault
// schedule reproduce the same packet-level outcome byte-for-byte. Impairments
// never schedule events themselves — they return a decision (drop / extra
// delay / duplicate) and the owning device, which holds the Simulator,
// executes it. That keeps this module below src/net in the dependency order
// so Link and SimNic can embed pipelines directly.
#ifndef SRC_FAULT_IMPAIRMENT_H_
#define SRC_FAULT_IMPAIRMENT_H_

#include <memory>
#include <vector>

#include "src/net/packet.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace tas {

enum class ImpairmentKind {
  kBernoulliLoss,   // Drop each packet independently with probability `rate`.
  kGilbertElliott,  // Two-state Markov (good/bad) burst loss.
  kCorrupt,         // Flip wire bits; the checksum path must reject the frame.
  kReorder,         // Hold a packet back so later packets overtake it.
  kDuplicate,       // Deliver an extra copy.
  kLinkDown,        // Administrative gate: drop everything while down.
};

const char* ImpairmentKindName(ImpairmentKind kind);

// Declarative description of one impairment; what harness scenario configs
// carry (LinkConfig::faults) and what the FaultInjector
// instantiates for timed fault windows.
struct ImpairmentSpec {
  ImpairmentKind kind = ImpairmentKind::kBernoulliLoss;
  // Per-packet probability of the effect (loss / corruption / reorder /
  // duplication). Ignored by kGilbertElliott and kLinkDown.
  double rate = 0.0;

  // Gilbert-Elliott parameters (per-packet transition probabilities).
  double ge_enter_bad = 0.0;  // P(good -> bad).
  double ge_exit_bad = 0.0;   // P(bad -> good).
  double ge_loss_bad = 1.0;   // Loss probability while in the bad state.

  // kCorrupt: wire bits flipped per corrupted packet.
  uint32_t corrupt_bits = 1;

  // kReorder: extra delay drawn uniformly from [min, max].
  TimeNs reorder_delay_min = Us(50);
  TimeNs reorder_delay_max = Us(200);
};

// Spec builders, so call sites read like the fault they inject.
ImpairmentSpec BernoulliLoss(double rate);
ImpairmentSpec GilbertElliottLoss(double enter_bad, double exit_bad, double loss_bad);
ImpairmentSpec Corruption(double rate, uint32_t bits = 1);
ImpairmentSpec Reordering(double rate, TimeNs delay_min, TimeNs delay_max);
ImpairmentSpec Duplication(double rate);

// An ordered set of impairments for one attachment point (one link direction,
// one NIC RX side). Scenario configs embed this.
struct FaultConfig {
  std::vector<ImpairmentSpec> impairments;

  bool enabled() const { return !impairments.empty(); }
  FaultConfig& Add(const ImpairmentSpec& spec) {
    impairments.push_back(spec);
    return *this;
  }
};

struct ImpairmentStats {
  uint64_t processed = 0;   // Packets this impairment saw.
  uint64_t dropped = 0;     // Packets it discarded.
  uint64_t corrupted = 0;   // Packets it marked for wire-bit corruption.
  uint64_t reordered = 0;   // Packets it held back.
  uint64_t duplicated = 0;  // Packets it cloned.
};

// What the owning device must do with the packet after the pipeline ran.
struct ImpairmentDecision {
  bool drop = false;
  bool duplicate = false;
  TimeNs extra_delay = 0;
  // Which impairment dropped the packet (for stats attribution); null if none.
  const class Impairment* dropped_by = nullptr;
};

class Impairment {
 public:
  virtual ~Impairment() = default;

  // Inspects (and for corruption, marks) the packet, folding its effect into
  // `decision`. Must not be called after `decision.drop` is set.
  virtual void Apply(Packet& pkt, Rng& rng, ImpairmentDecision& decision) = 0;

  ImpairmentKind kind() const { return kind_; }
  const char* Name() const { return ImpairmentKindName(kind_); }
  const ImpairmentStats& stats() const { return stats_; }

 protected:
  explicit Impairment(ImpairmentKind kind) : kind_(kind) {}
  ImpairmentStats stats_;

 private:
  ImpairmentKind kind_;
};

// The administrative up/down gate is the one impairment callers toggle at
// runtime (link flaps), so its concrete type is public.
class LinkDownImpairment : public Impairment {
 public:
  explicit LinkDownImpairment(bool down = true)
      : Impairment(ImpairmentKind::kLinkDown), down_(down) {}

  void Apply(Packet& pkt, Rng& rng, ImpairmentDecision& decision) override;
  void SetDown(bool down) { down_ = down; }
  bool down() const { return down_; }

 private:
  bool down_ = true;
};

std::unique_ptr<Impairment> MakeImpairment(const ImpairmentSpec& spec);

// Runs packets through its impairments in order. A drop short-circuits the
// walk (later impairments never see a packet an earlier element discarded,
// as on a real chain of lossy components); extra delays accumulate and
// duplication latches.
class ImpairmentPipeline {
 public:
  ImpairmentPipeline() = default;
  ImpairmentPipeline(const ImpairmentPipeline&) = delete;
  ImpairmentPipeline& operator=(const ImpairmentPipeline&) = delete;

  // Takes ownership; returns a non-owning handle usable with Remove().
  Impairment* Add(std::unique_ptr<Impairment> impairment);
  Impairment* Add(const ImpairmentSpec& spec) { return Add(MakeImpairment(spec)); }
  // Gates belong ahead of probabilistic elements so their stats only count
  // packets that were actually offered to the wire.
  Impairment* AddFront(std::unique_ptr<Impairment> impairment);
  void AddAll(const FaultConfig& config);
  // Removes (and destroys) the impairment; returns false if not present.
  // Its stats are folded into the retired accumulator first, so pipeline
  // totals keep counting it (FaultInjector windows remove impairments
  // mid-run; metric counters must stay monotone).
  bool Remove(const Impairment* impairment);
  void Clear() { impairments_.clear(); }

  bool empty() const { return impairments_.empty(); }
  size_t size() const { return impairments_.size(); }
  Impairment* at(size_t i) { return impairments_[i].get(); }
  const Impairment* at(size_t i) const { return impairments_[i].get(); }

  ImpairmentDecision Apply(Packet& pkt, Rng& rng);

  // Totals across all impairments, live and retired (link-down gates
  // included).
  uint64_t TotalProcessed() const;
  uint64_t TotalDropped() const;
  uint64_t TotalCorrupted() const;
  uint64_t TotalReordered() const;
  uint64_t TotalDuplicated() const;

 private:
  std::vector<std::unique_ptr<Impairment>> impairments_;
  ImpairmentStats retired_;  // Summed stats of removed impairments.
};

}  // namespace tas

#endif  // SRC_FAULT_IMPAIRMENT_H_
