// Flow-group steering (paper §3.4 at million-flow scale): the NIC RSS
// redirection table is the flow -> core map, and each redirection entry is a
// FLOW GROUP — the unit the scaling controller moves between fast-path
// cores. This replaces per-flow modulo placement: migrating a group is one
// redirection-entry write plus a quiesce of the source core, no matter how
// many of the million flows hash into the group.
//
// Quiesce protocol (preserves determinism and the latency partition):
//   1. A migration request records the source core's in-flight backlog
//      (gathered batch + work queue + NIC ring) as a drain target over the
//      core's retired-items counter. New TX work for the group's flows is
//      deferred on the group instead of enqueued.
//   2. Every fast-path batch retirement reports progress; when the source
//      core's retired counter passes the target, the redirection entry is
//      flipped to the target core.
//   3. Deferred flow-TX work is re-enqueued on the target core.
// If the source core is idle at request time the flip happens immediately,
// which makes the §3.4 scale-up/down transitions byte-identical to the old
// eager table rewrite whenever the affected cores are quiesced already.
//
// All decisions read deterministic simulator state (per-core retired
// counters), so same-seed runs migrate identically.
// Only groups with a drain in flight carry state here; the redirection
// table itself is the NIC's.
#ifndef SRC_TAS_STEERING_H_
#define SRC_TAS_STEERING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/tas/flow_state.h"
#include "src/util/time.h"

namespace tas {

class TasService;

class FlowGroupSteering {
 public:
  explicit FlowGroupSteering(TasService* service);

  FlowGroupSteering(const FlowGroupSteering&) = delete;
  FlowGroupSteering& operator=(const FlowGroupSteering&) = delete;

  // Current owning core of a group == its NIC redirection entry's queue.
  int CoreOf(int entry) const;
  bool Draining(int entry) const {
    return std::any_of(drains_.begin(), drains_.end(),
                       [entry](const Drain& d) { return d.entry == entry; });
  }

  // Parks a flow's TX enqueue while its group drains; re-enqueued on the
  // target core when the entry flips. The flow keeps tx_pending set.
  void DeferFlowTx(int entry, FlowId id);

  // Requests a quiesce migration of `entry` to `target_core`. Returns false
  // for no-ops (already owned by the target / already draining there).
  // Retargets an in-flight drain instead of stacking a second one.
  bool MigrateGroup(int entry, int target_core);

  // Applies the §3.4 controller layout — entry i -> i % active, matching the
  // NIC's round-robin SetActiveQueues spread — via quiesce migrations.
  void SetActiveCores(int active);

  // Fast-path batch-retirement hook: flips every draining group whose source
  // core has passed its drain target.
  void OnCoreProgress(int core);

  uint64_t migrations() const { return migrations_; }      // Drains completed.
  uint64_t group_moves() const { return group_moves_; }    // Entries flipped.
  uint64_t deferred_items() const { return deferred_items_; }

  // --- Instantaneous drain state (gauges + diagnostic bundles) ---------------
  // Flows currently parked across all draining groups.
  size_t DeferredDepth() const;
  int DrainingGroups() const { return static_cast<int>(drains_.size()); }
  // Age of the oldest in-flight drain, 0 when none — a large value means a
  // stuck migration (the source core stopped retiring items).
  TimeNs MaxDrainAge(TimeNs now) const;

  // Snapshot of every draining group, entry order (bundle context).
  struct DrainingGroup {
    int entry = -1;
    int source_core = -1;
    int target_core = -1;
    uint64_t drain_target = 0;
    size_t deferred = 0;
    TimeNs started = 0;
  };
  std::vector<DrainingGroup> DrainingState() const;

 private:
  // One group's in-flight quiesce.
  struct Drain {
    int entry = -1;
    int source_core = -1;
    int target_core = -1;
    uint64_t drain_target = 0;  // Source core's items_processed() threshold.
    TimeNs started = 0;         // Sim time the quiesce was requested.
    std::vector<FlowId> deferred;
  };

  Drain* FindDrain(int entry);
  // Points the entry at `target` (one redirection-entry write).
  void Flip(int entry, int target);

  TasService* service_;
  // Draining groups in entry order, so flips and snapshots walk them as the
  // redirection table does.
  std::vector<Drain> drains_;
  // A finished drain's deferred buffer, kept for the next drain (steady-state
  // migrations allocate only when a drain parks more work than any before).
  std::vector<FlowId> spare_deferred_;
  uint64_t migrations_ = 0;
  uint64_t group_moves_ = 0;
  uint64_t deferred_items_ = 0;
};

}  // namespace tas

#endif  // SRC_TAS_STEERING_H_
