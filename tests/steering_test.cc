// Flow-group steering tests (src/tas/steering): idle groups flip their RSS
// redirection entry immediately, busy source cores drain through the quiesce
// protocol (with TX work parked on the group and re-enqueued on the target),
// and same-seed runs with load-aware migration enabled stay byte-identical.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/harness/experiment.h"
#include "src/tas/fast_path.h"
#include "src/tas/steering.h"
#include "src/util/zipf.h"

namespace tas {
namespace {

class SteeringFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    HostSpec spec;
    spec.stack = StackKind::kTas;
    spec.stack_cores = 4;
    LinkConfig link;
    exp_ = Experiment::PointToPoint(spec, spec, link);
    service_ = exp_->host(0).tas();
  }

  // Allocates an established flow and returns (id, redirection entry).
  std::pair<FlowId, int> EstablishedFlow(uint16_t local_port) {
    const FlowKey key{local_port, MakeIp(10, 9, 0, 2), 7000};
    const FlowId id = service_->AllocateFlow(key);
    Flow* flow = service_->flow_by_id(id);
    flow->cstate = ConnState::kEstablished;
    return {id, service_->RedirectionEntryForFlow(*flow)};
  }

  // Injects a pure in-window ACK for the flow into the NIC (lands on the
  // flow's RSS ring; the fast path takes the established no-op path).
  void InjectAck(FlowId id) {
    const Flow* f = service_->flow_by_id(id);
    service_->nic()->Receive(MakeTcpPacket(service_->context().pool(), f->fs.peer_ip,
                                           f->fs.peer_port, service_->local_ip(),
                                           f->fs.local_port, f->fs.ack, f->fs.tx_tail,
                                           TcpFlags::kAck));
  }

  std::unique_ptr<Experiment> exp_;
  TasService* service_ = nullptr;
};

TEST_F(SteeringFixture, IdleGroupFlipsImmediately) {
  FlowGroupSteering* steer = service_->steering();
  const int source = steer->CoreOf(0);
  const int target = (source + 1) % 4;
  EXPECT_TRUE(steer->MigrateGroup(0, target));
  // No in-flight work on the source core: the entry flips synchronously —
  // byte-identical to the legacy eager redirection-table rewrite.
  EXPECT_FALSE(steer->Draining(0));
  EXPECT_EQ(steer->CoreOf(0), target);
  EXPECT_EQ(service_->nic()->RedirectionEntryQueue(0), target);
  EXPECT_EQ(steer->group_moves(), 1u);
  EXPECT_EQ(steer->migrations(), 0u);  // No drain was needed.
  // Migrating to the current owner is a no-op.
  EXPECT_FALSE(steer->MigrateGroup(0, target));
  EXPECT_EQ(steer->group_moves(), 1u);
}

TEST_F(SteeringFixture, BusySourceDrainsThenFlipsAndReenqueuesDeferredTx) {
  FlowGroupSteering* steer = service_->steering();
  const auto [id, entry] = EstablishedFlow(4242);
  const int source = steer->CoreOf(entry);
  const int target = (source + 1) % 4;

  // Park packets on the source core's ring WITHOUT running the simulator:
  // the migration request must observe the backlog and enter drain mode.
  for (int i = 0; i < 8; ++i) {
    InjectAck(id);
  }
  ASSERT_GT(service_->nic()->RxQueueLen(source), 0u);
  EXPECT_TRUE(steer->MigrateGroup(entry, target));
  EXPECT_TRUE(steer->Draining(entry));
  EXPECT_EQ(steer->CoreOf(entry), source) << "entry must not flip before the drain";

  // TX work arriving for the draining group parks on the group, not a core.
  service_->ScheduleFlowTx(id, 0);
  EXPECT_TRUE(service_->flow_by_id(id)->tx_pending);
  EXPECT_EQ(steer->deferred_items(), 1u);

  // Run: the source core retires its batches, the quiesce clock passes the
  // drain target, the entry flips, and the deferred work re-enqueues on the
  // target core.
  exp_->sim().RunUntil(Ms(5));
  EXPECT_FALSE(steer->Draining(entry));
  EXPECT_EQ(steer->CoreOf(entry), target);
  EXPECT_EQ(steer->migrations(), 1u);  // A real drain completed.
  EXPECT_EQ(steer->group_moves(), 1u);
  // The re-enqueued TX item was processed (nothing to send clears the flag).
  EXPECT_FALSE(service_->flow_by_id(id)->tx_pending);
  EXPECT_EQ(service_->stats().exceptions, 0u);
}

TEST_F(SteeringFixture, DrainRetargetsInsteadOfStacking) {
  FlowGroupSteering* steer = service_->steering();
  const auto [id, entry] = EstablishedFlow(5151);
  const int source = steer->CoreOf(entry);
  for (int i = 0; i < 4; ++i) {
    InjectAck(id);
  }
  ASSERT_TRUE(steer->MigrateGroup(entry, (source + 1) % 4));
  ASSERT_TRUE(steer->Draining(entry));
  // A second request while draining retargets the same drain.
  const int final_target = (source + 2) % 4;
  EXPECT_TRUE(steer->MigrateGroup(entry, final_target));
  exp_->sim().RunUntil(Ms(5));
  EXPECT_EQ(steer->CoreOf(entry), final_target);
  EXPECT_EQ(steer->migrations(), 1u) << "one drain, retargeted — not two";
}

// Same seed twice, with the §3.4 core count stepped down and back up while
// traffic is queued: the steering decisions and per-core retirement counters
// must be byte-identical across runs (migration reads only deterministic
// simulator state).
TEST(SteeringDeterminismTest, SameSeedRerunsAreByteIdentical) {
  auto run = [] {
    HostSpec spec;
    spec.stack = StackKind::kTas;
    spec.stack_cores = 4;
    spec.tas_overridden = true;
    spec.tas.max_fastpath_cores = 4;
    HostSpec peer;
    auto exp = Experiment::PointToPoint(spec, peer, LinkConfig{});
    TasService* tas = exp->host(0).tas();

    std::vector<FlowId> ids;
    for (uint16_t i = 0; i < 2048; ++i) {
      const FlowKey key{static_cast<uint16_t>(3000 + i), MakeIp(10, 9, 1, 2), 7000};
      ids.push_back(tas->AllocateFlow(key));
      tas->flow_by_id(ids.back())->cstate = ConnState::kEstablished;
    }

    ZipfGenerator zipf(ids.size(), 1.2);
    Rng rng(0xD1CE);
    uint16_t next_port = 6000;
    for (int round = 0; round < 24; ++round) {
      for (int p = 0; p < 64; ++p) {
        const Flow* f = tas->flow_by_id(ids[zipf.Sample(rng)]);
        tas->nic()->Receive(MakeTcpPacket(exp->packet_pool(), f->fs.peer_ip, f->fs.peer_port,
                                          tas->local_ip(), f->fs.local_port, f->fs.ack,
                                          f->fs.tx_tail, TcpFlags::kAck));
      }
      // Migrate groups while the injected burst is still queued, so some
      // of them drain rather than flip at once.
      if (round == 8) {
        tas->SetActiveCores(2);
      } else if (round == 16) {
        tas->SetActiveCores(4);
      }
      exp->sim().RunUntil(exp->sim().Now() + Us(200));
      // Churn: freed ids must go stale before the slot is reused.
      const size_t victim = static_cast<size_t>(round) * 7 % ids.size();
      const FlowId old_id = ids[victim];
      tas->FreeFlow(old_id);
      EXPECT_EQ(tas->flow_by_id(old_id), nullptr);
      const FlowKey key{next_port++, MakeIp(10, 9, 2, 2), 7000};
      ids[victim] = tas->AllocateFlow(key);
      tas->flow_by_id(ids[victim])->cstate = ConnState::kEstablished;
    }
    exp->sim().RunUntil(exp->sim().Now() + Ms(2));

    uint64_t items = 0;
    for (int i = 0; i < tas->max_cores(); ++i) {
      items = items * 1000003 + tas->fastpath(i)->items_processed();
    }
    FlowGroupSteering* steer = tas->steering();
    EXPECT_GT(steer->group_moves(), 0u);
    return std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, TimeNs>(
        items, steer->group_moves(), steer->migrations(), steer->deferred_items(),
        tas->stats().fastpath_rx_packets, exp->sim().Now());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tas
