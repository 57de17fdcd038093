#include "src/fault/impairment.h"

#include "src/util/logging.h"

namespace tas {

const char* ImpairmentKindName(ImpairmentKind kind) {
  switch (kind) {
    case ImpairmentKind::kBernoulliLoss:
      return "bernoulli-loss";
    case ImpairmentKind::kGilbertElliott:
      return "gilbert-elliott";
    case ImpairmentKind::kCorrupt:
      return "corrupt";
    case ImpairmentKind::kReorder:
      return "reorder";
    case ImpairmentKind::kDuplicate:
      return "duplicate";
    case ImpairmentKind::kLinkDown:
      return "link-down";
  }
  return "?";
}

ImpairmentSpec BernoulliLoss(double rate) {
  ImpairmentSpec spec;
  spec.kind = ImpairmentKind::kBernoulliLoss;
  spec.rate = rate;
  return spec;
}

ImpairmentSpec GilbertElliottLoss(double enter_bad, double exit_bad, double loss_bad) {
  ImpairmentSpec spec;
  spec.kind = ImpairmentKind::kGilbertElliott;
  spec.ge_enter_bad = enter_bad;
  spec.ge_exit_bad = exit_bad;
  spec.ge_loss_bad = loss_bad;
  return spec;
}

ImpairmentSpec Corruption(double rate, uint32_t bits) {
  ImpairmentSpec spec;
  spec.kind = ImpairmentKind::kCorrupt;
  spec.rate = rate;
  spec.corrupt_bits = bits;
  return spec;
}

ImpairmentSpec Reordering(double rate, TimeNs delay_min, TimeNs delay_max) {
  ImpairmentSpec spec;
  spec.kind = ImpairmentKind::kReorder;
  spec.rate = rate;
  spec.reorder_delay_min = delay_min;
  spec.reorder_delay_max = delay_max;
  return spec;
}

ImpairmentSpec Duplication(double rate) {
  ImpairmentSpec spec;
  spec.kind = ImpairmentKind::kDuplicate;
  spec.rate = rate;
  return spec;
}

void LinkDownImpairment::Apply(Packet& pkt, Rng& rng, ImpairmentDecision& decision) {
  (void)pkt;
  (void)rng;
  ++stats_.processed;
  if (down_) {
    ++stats_.dropped;
    decision.drop = true;
    decision.dropped_by = this;
  }
}

namespace {

class BernoulliLossImpairment : public Impairment {
 public:
  explicit BernoulliLossImpairment(double rate)
      : Impairment(ImpairmentKind::kBernoulliLoss), rate_(rate) {
    TAS_CHECK(rate >= 0.0 && rate <= 1.0);
  }

  void Apply(Packet& pkt, Rng& rng, ImpairmentDecision& decision) override {
    (void)pkt;
    ++stats_.processed;
    if (rng.NextBool(rate_)) {
      ++stats_.dropped;
      decision.drop = true;
      decision.dropped_by = this;
    }
  }

 private:
  double rate_;
};

// Gilbert-Elliott burst loss: a two-state Markov chain stepped per packet.
// The good state is lossless; the bad state drops most packets, so
// loss arrives in bursts whose mean length is 1/exit_bad packets.
class GilbertElliottImpairment : public Impairment {
 public:
  explicit GilbertElliottImpairment(const ImpairmentSpec& spec)
      : Impairment(ImpairmentKind::kGilbertElliott),
        enter_bad_(spec.ge_enter_bad),
        exit_bad_(spec.ge_exit_bad),
        loss_bad_(spec.ge_loss_bad) {}

  void Apply(Packet& pkt, Rng& rng, ImpairmentDecision& decision) override {
    (void)pkt;
    ++stats_.processed;
    // Step the chain, then apply the (possibly new) state's loss rate. Both
    // draws happen unconditionally so the rng stream shape is data-independent.
    const bool transition = rng.NextBool(bad_ ? exit_bad_ : enter_bad_);
    if (transition) {
      bad_ = !bad_;
    }
    if (rng.NextBool(bad_ ? loss_bad_ : 0.0)) {
      ++stats_.dropped;
      decision.drop = true;
      decision.dropped_by = this;
    }
  }

  bool in_bad_state() const { return bad_; }

 private:
  double enter_bad_;
  double exit_bad_;
  double loss_bad_;
  bool bad_ = false;
};

// Marks the packet for wire-bit corruption. The flips themselves happen where
// bytes exist: the Link's validate_wire_format round-trip flips real bits and
// lets the internet checksum reject the frame; otherwise the receiving NIC
// models its hardware checksum verification by discarding marked frames.
class CorruptImpairment : public Impairment {
 public:
  CorruptImpairment(double rate, uint32_t bits)
      : Impairment(ImpairmentKind::kCorrupt), rate_(rate), bits_(bits) {
    TAS_CHECK(bits >= 1);
  }

  void Apply(Packet& pkt, Rng& rng, ImpairmentDecision& decision) override {
    (void)decision;
    ++stats_.processed;
    if (rng.NextBool(rate_)) {
      ++stats_.corrupted;
      pkt.corrupt_flips += bits_;
    }
  }

 private:
  double rate_;
  uint32_t bits_;
};

class ReorderImpairment : public Impairment {
 public:
  ReorderImpairment(double rate, TimeNs delay_min, TimeNs delay_max)
      : Impairment(ImpairmentKind::kReorder),
        rate_(rate),
        delay_min_(delay_min),
        delay_max_(delay_max) {
    TAS_CHECK(delay_min >= 0 && delay_max >= delay_min);
  }

  void Apply(Packet& pkt, Rng& rng, ImpairmentDecision& decision) override {
    (void)pkt;
    ++stats_.processed;
    if (rng.NextBool(rate_)) {
      ++stats_.reordered;
      decision.extra_delay += delay_min_ == delay_max_
                                  ? delay_min_
                                  : rng.NextInt(delay_min_, delay_max_);
    }
  }

 private:
  double rate_;
  TimeNs delay_min_;
  TimeNs delay_max_;
};

class DuplicateImpairment : public Impairment {
 public:
  explicit DuplicateImpairment(double rate)
      : Impairment(ImpairmentKind::kDuplicate), rate_(rate) {}

  void Apply(Packet& pkt, Rng& rng, ImpairmentDecision& decision) override {
    (void)pkt;
    ++stats_.processed;
    if (rng.NextBool(rate_)) {
      ++stats_.duplicated;
      decision.duplicate = true;
    }
  }

 private:
  double rate_;
};

}  // namespace

std::unique_ptr<Impairment> MakeImpairment(const ImpairmentSpec& spec) {
  switch (spec.kind) {
    case ImpairmentKind::kBernoulliLoss:
      return std::make_unique<BernoulliLossImpairment>(spec.rate);
    case ImpairmentKind::kGilbertElliott:
      return std::make_unique<GilbertElliottImpairment>(spec);
    case ImpairmentKind::kCorrupt:
      return std::make_unique<CorruptImpairment>(spec.rate, spec.corrupt_bits);
    case ImpairmentKind::kReorder:
      return std::make_unique<ReorderImpairment>(spec.rate, spec.reorder_delay_min,
                                                 spec.reorder_delay_max);
    case ImpairmentKind::kDuplicate:
      return std::make_unique<DuplicateImpairment>(spec.rate);
    case ImpairmentKind::kLinkDown:
      return std::make_unique<LinkDownImpairment>();  // Starts down.
  }
  TAS_CHECK(false) << "unknown impairment kind";
  return nullptr;
}

Impairment* ImpairmentPipeline::Add(std::unique_ptr<Impairment> impairment) {
  impairments_.push_back(std::move(impairment));
  return impairments_.back().get();
}

Impairment* ImpairmentPipeline::AddFront(std::unique_ptr<Impairment> impairment) {
  impairments_.insert(impairments_.begin(), std::move(impairment));
  return impairments_.front().get();
}

void ImpairmentPipeline::AddAll(const FaultConfig& config) {
  for (const ImpairmentSpec& spec : config.impairments) {
    Add(spec);
  }
}

bool ImpairmentPipeline::Remove(const Impairment* impairment) {
  for (auto it = impairments_.begin(); it != impairments_.end(); ++it) {
    if (it->get() == impairment) {
      const ImpairmentStats& s = (*it)->stats();
      retired_.processed += s.processed;
      retired_.dropped += s.dropped;
      retired_.corrupted += s.corrupted;
      retired_.reordered += s.reordered;
      retired_.duplicated += s.duplicated;
      impairments_.erase(it);
      return true;
    }
  }
  return false;
}

ImpairmentDecision ImpairmentPipeline::Apply(Packet& pkt, Rng& rng) {
  ImpairmentDecision decision;
  for (auto& impairment : impairments_) {
    impairment->Apply(pkt, rng, decision);
    if (decision.drop) {
      break;
    }
  }
  return decision;
}

uint64_t ImpairmentPipeline::TotalProcessed() const {
  uint64_t total = retired_.processed;
  for (const auto& impairment : impairments_) {
    total += impairment->stats().processed;
  }
  return total;
}

uint64_t ImpairmentPipeline::TotalDropped() const {
  uint64_t total = retired_.dropped;
  for (const auto& impairment : impairments_) {
    total += impairment->stats().dropped;
  }
  return total;
}

uint64_t ImpairmentPipeline::TotalCorrupted() const {
  uint64_t total = retired_.corrupted;
  for (const auto& impairment : impairments_) {
    total += impairment->stats().corrupted;
  }
  return total;
}

uint64_t ImpairmentPipeline::TotalReordered() const {
  uint64_t total = retired_.reordered;
  for (const auto& impairment : impairments_) {
    total += impairment->stats().reordered;
  }
  return total;
}

uint64_t ImpairmentPipeline::TotalDuplicated() const {
  uint64_t total = retired_.duplicated;
  for (const auto& impairment : impairments_) {
    total += impairment->stats().duplicated;
  }
  return total;
}

}  // namespace tas
