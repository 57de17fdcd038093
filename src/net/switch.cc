#include "src/net/switch.h"

#include <algorithm>

#include "src/sim/context.h"
#include "src/trace/latency.h"

namespace tas {

// Adapter: receives packets from one link and hands them to the switch.
class Switch::Port : public NetDevice {
 public:
  Port(Switch* parent, LinkEnd end) : parent_(parent), end_(end) { end_.Attach(this); }

  void Receive(PacketPtr pkt) override { parent_->HandlePacket(std::move(pkt)); }
  void Send(PacketPtr pkt) { end_.Send(std::move(pkt)); }
  LinkEnd end() const { return end_; }

  bool admitting = false;  // Burst-admitted by the running Flush.

 private:
  Switch* parent_;
  LinkEnd end_;
};

Switch::Switch(Simulator* sim, std::string name)
    : sim_(sim), name_(std::move(name)), routes_(kMinRouteSlots) {}

Switch::~Switch() = default;

int Switch::AddPort(LinkEnd end) {
  ports_.push_back(std::make_unique<Port>(this, end));
  return static_cast<int>(ports_.size()) - 1;
}

LinkEnd Switch::port_end(int port) const {
  TAS_CHECK(port >= 0 && static_cast<size_t>(port) < ports_.size());
  return ports_[static_cast<size_t>(port)]->end();
}

Switch::Route& Switch::RouteSlot(IpAddr dst) {
  const size_t mask = routes_.size() - 1;
  uint32_t h = dst * 0x9E3779B1u;
  h ^= h >> 16;  // Fold the well-mixed high half into the index bits.
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    Route& route = routes_[i];
    if (route.count == 0 || route.dst == dst) {
      return route;
    }
  }
}

void Switch::AddRoute(IpAddr dst, int port) {
  TAS_CHECK(port >= 0 && static_cast<size_t>(port) < ports_.size());
  if ((route_count_ + 1) * 2 > routes_.size()) {
    std::vector<Route> old = std::move(routes_);
    routes_.assign(old.size() * 2, Route{});
    for (const Route& route : old) {
      if (route.count != 0) {
        RouteSlot(route.dst) = route;
      }
    }
  }
  Route& route = RouteSlot(dst);
  if (route.count == 0) {
    route = Route{dst, static_cast<uint32_t>(route_ports_.size()), 0};
    ++route_count_;
  } else if (route.first + route.count != route_ports_.size()) {
    // Not the newest set: move it to the end so it can grow in place.
    const uint32_t first = static_cast<uint32_t>(route_ports_.size());
    for (uint32_t i = 0; i < route.count; ++i) {
      route_ports_.push_back(route_ports_[route.first + i]);
    }
    route.first = first;
  }
  route_ports_.push_back(port);
  ++route.count;
}

void Switch::ClearRoutes() {
  routes_.assign(routes_.size(), Route{});
  route_ports_.clear();
  route_count_ = 0;
}

void Switch::HandlePacket(PacketPtr pkt) {
  const Route& route = RouteSlot(pkt->ip.dst);
  if (route.count == 0) {
    ++no_route_drops_;
    if (LatencyTracer* lt = sim_->context().latency_sink()) {
      lt->Abandon(pkt->lat_id);
    }
    return;
  }
  int port;
  if (route.count == 1) {
    port = route_ports_[route.first];
  } else {
    const uint32_t h =
        FlowHash(pkt->ip.src, pkt->tcp.src_port, pkt->ip.dst, pkt->tcp.dst_port);
    port = route_ports_[route.first + h % route.count];
  }
  ++forwarded_;
  // Arrivals are FIFO in time, so due times are monotone; the pending queue
  // owns the packets (sim teardown recycles them via the pool).
  pending_.push_back(Pending{sim_->Now() + kForwardingLatency, port, std::move(pkt)});
  pending_hw_ = std::max(pending_hw_, pending_.size());
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    sim_->After(kForwardingLatency, [this] { Flush(); });
  }
}

void Switch::Flush() {
  flush_scheduled_ = false;
  // Burst-admit per egress link so a forwarded wave leaves each port as one
  // serialized train (one delivery event) instead of frame-by-frame.
  touched_ports_.clear();
  LatencyTracer* lt = sim_->context().latency_sink();
  while (!pending_.empty() && pending_.front().due <= sim_->Now()) {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    Port* port = ports_[static_cast<size_t>(p.port)].get();
    if (!port->admitting) {
      port->admitting = true;
      touched_ports_.push_back(p.port);
      port->end().BeginAdmit();
    }
    if (lt != nullptr) {
      // Forwarding-pipeline dwell ends here; the egress link charges its own
      // queue/wire stages next.
      lt->Stamp(p.pkt->lat_id, LatencyStage::kSwitchQueue, sim_->Now());
    }
    port->Send(std::move(p.pkt));
  }
  for (const int index : touched_ports_) {
    Port* port = ports_[static_cast<size_t>(index)].get();
    port->admitting = false;
    port->end().EndAdmit();
  }
  if (!pending_.empty()) {
    flush_scheduled_ = true;
    sim_->At(pending_.front().due, [this] { Flush(); });
  }
}

void Switch::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  registry->AddCounter(prefix + ".forwarded", &forwarded_);
  registry->AddCounter(prefix + ".no_route_drops", &no_route_drops_);
  registry->AddGauge(prefix + ".pending_hw",
                     [this] { return static_cast<double>(pending_hw_); });
  for (size_t p = 0; p < ports_.size(); ++p) {
    const LinkEnd end = ports_[p]->end();
    registry->AddGauge(prefix + ".port." + std::to_string(p) + ".queue_pkts", [end] {
      return static_cast<double>(end.link->QueueLen(end.side));
    });
  }
}

}  // namespace tas
