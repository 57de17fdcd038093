#include "src/tas/steering.h"

#include <algorithm>

#include "src/nic/nic.h"
#include "src/tas/fast_path.h"
#include "src/tas/service.h"
#include "src/util/logging.h"

namespace tas {

FlowGroupSteering::FlowGroupSteering(TasService* service)
    : service_(service) {}

int FlowGroupSteering::CoreOf(int entry) const {
  return service_->nic()->RedirectionEntryQueue(entry);
}

FlowGroupSteering::Drain* FlowGroupSteering::FindDrain(int entry) {
  for (Drain& d : drains_) {
    if (d.entry == entry) {
      return &d;
    }
  }
  return nullptr;
}

void FlowGroupSteering::DeferFlowTx(int entry, FlowId id) {
  Drain* d = FindDrain(entry);
  TAS_DCHECK(d != nullptr);
  d->deferred.push_back(id);
  ++deferred_items_;
}

bool FlowGroupSteering::MigrateGroup(int entry, int target_core) {
  if (Drain* d = FindDrain(entry)) {
    if (target_core == d->target_core) {
      return false;
    }
    // Retarget the in-flight drain; the source quiesce already underway
    // covers the new destination too.
    d->target_core = target_core;
    return true;
  }
  const int current = CoreOf(entry);
  if (target_core == current) {
    return false;
  }
  FastPathCore* src = service_->fastpath(current);
  const uint64_t backlog =
      src->queued_items() + service_->nic()->RxQueueLen(current);
  if (backlog == 0) {
    // Source core quiesced already: flip eagerly (identical to the legacy
    // whole-table rewrite for idle transitions).
    Flip(entry, target_core);
    return true;
  }
  Drain d;
  d.entry = entry;
  d.source_core = current;
  d.target_core = target_core;
  d.drain_target = src->items_processed() + backlog;
  d.started = service_->sim()->Now();
  d.deferred = std::move(spare_deferred_);
  spare_deferred_.clear();
  const auto at = std::find_if(drains_.begin(), drains_.end(),
                               [entry](const Drain& other) { return other.entry > entry; });
  drains_.insert(at, std::move(d));
  return true;
}

void FlowGroupSteering::SetActiveCores(int active) {
  TAS_DCHECK(active >= 1);
  for (size_t e = 0; e < service_->nic()->rss_entries(); ++e) {
    MigrateGroup(static_cast<int>(e), static_cast<int>(e % static_cast<size_t>(active)));
  }
}

void FlowGroupSteering::OnCoreProgress(int core) {
  if (drains_.empty()) {
    return;
  }
  const uint64_t processed = service_->fastpath(core)->items_processed();
  size_t i = 0;
  while (i < drains_.size()) {
    if (drains_[i].source_core != core || processed < drains_[i].drain_target) {
      ++i;
      continue;
    }
    ++migrations_;
    Drain done = std::move(drains_[i]);
    drains_.erase(drains_.begin() + static_cast<std::ptrdiff_t>(i));
    Flip(done.entry, done.target_core);
    // Re-enqueue parked TX work on the new owner. The items kept tx_pending
    // set while parked, so no duplicate enqueue could happen in between.
    for (FlowId id : done.deferred) {
      Flow* flow = service_->flow_by_id(id);
      if (flow == nullptr) {
        continue;
      }
      if (!flow->FastPathEligible()) {
        flow->tx_pending = false;
        continue;
      }
      service_->fastpath(done.target_core)->EnqueueFlowTx(id);
    }
    done.deferred.clear();
    spare_deferred_ = std::move(done.deferred);
  }
}

void FlowGroupSteering::Flip(int entry, int target) {
  service_->nic()->SetRedirectionEntry(entry, target);
  ++group_moves_;
}

size_t FlowGroupSteering::DeferredDepth() const {
  size_t depth = 0;
  for (const Drain& d : drains_) {
    depth += d.deferred.size();
  }
  return depth;
}

TimeNs FlowGroupSteering::MaxDrainAge(TimeNs now) const {
  TimeNs max_age = 0;
  for (const Drain& d : drains_) {
    max_age = std::max(max_age, now - d.started);
  }
  return max_age;
}

std::vector<FlowGroupSteering::DrainingGroup> FlowGroupSteering::DrainingState() const {
  std::vector<DrainingGroup> out;
  out.reserve(drains_.size());
  for (const Drain& d : drains_) {
    out.push_back(DrainingGroup{d.entry, d.source_core, d.target_core, d.drain_target,
                                d.deferred.size(), d.started});
  }
  return out;
}

}  // namespace tas
