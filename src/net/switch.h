// Output-queued Ethernet switch with destination-IP forwarding and ECMP.
//
// Queueing, ECN marking and drops happen in the attached Links' egress
// queues (the standard output-queued switch model); the switch itself adds a
// fixed forwarding latency. ECMP picks among equal-cost next hops by flow
// hash, which keeps a connection on a stable path — the in-order delivery
// assumption TAS relies on (paper §3.1).
#ifndef SRC_NET_SWITCH_H_
#define SRC_NET_SWITCH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/sim/simulator.h"
#include "src/util/fifo.h"

namespace tas {

class Switch {
 public:
  // Forwarding latency of every switch (port-to-port, before the egress
  // link's queue).
  static constexpr TimeNs kForwardingLatency = 500;

  Switch(Simulator* sim, std::string name);
  ~Switch();  // Out of line: Port is an implementation detail.

  const std::string& name() const { return name_; }

  // Connects a new port to the given link end; returns the port index.
  int AddPort(LinkEnd end);
  // The egress plug of a port — the handle fault schedules use to impair or
  // flap a specific switch uplink (port_end(p).link).
  LinkEnd port_end(int port) const;

  // Declares that `dst` is reachable via `port` (equal cost with any ports
  // already registered for `dst`).
  void AddRoute(IpAddr dst, int port);
  void ClearRoutes();

  uint64_t forwarded() const { return forwarded_; }
  uint64_t no_route_drops() const { return no_route_drops_; }

  // Registers forwarding counters plus one egress queue-depth gauge per port
  // under "<prefix>." (queue depth lives in the attached link's egress FIFO).
  void RegisterMetrics(MetricRegistry* registry, const std::string& prefix);

 private:
  class Port;

  // One FIB entry: `dst`'s equal-cost ports are route_ports_[first,
  // first + count), in AddRoute order. count == 0 marks an empty slot.
  struct Route {
    IpAddr dst = 0;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  void HandlePacket(PacketPtr pkt);
  void Flush();
  // The FIB slot holding `dst`, or the empty slot where it would go.
  Route& RouteSlot(IpAddr dst);

  Simulator* sim_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  // Open-addressed (linear probing, power-of-two size, at most half full)
  // over a contiguous ECMP port array: a forwarded packet costs one hash,
  // usually one probe, and one load of its port.
  static constexpr size_t kMinRouteSlots = 16;
  std::vector<Route> routes_;
  std::vector<int> route_ports_;
  size_t route_count_ = 0;
  // Routed packets awaiting their forwarding-latency expiry, FIFO by due
  // time. One flush event per distinct arrival instant forwards every packet
  // due at that moment — a burst delivered by a link shares one event while
  // per-packet timing stays exact.
  struct Pending {
    TimeNs due;
    int port;
    PacketPtr pkt;
  };
  Fifo<Pending> pending_;
  size_t pending_hw_ = 0;  // High-water of the forwarding-pipeline queue.
  bool flush_scheduled_ = false;
  std::vector<int> touched_ports_;  // Ports burst-admitted by the running Flush.
  uint64_t forwarded_ = 0;
  uint64_t no_route_drops_ = 0;
};

}  // namespace tas

#endif  // SRC_NET_SWITCH_H_
