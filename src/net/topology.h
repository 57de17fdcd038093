// Network container and topology builders: point-to-point, star (the paper's
// testbed: clients + server on one switch), dumbbell, and 3-level FatTree
// with configurable oversubscription (the paper's large-cluster simulation,
// Fig 12). ComputeRoutes() installs ECMP next-hop sets on every switch.
#ifndef SRC_NET_TOPOLOGY_H_
#define SRC_NET_TOPOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/net/switch.h"

namespace tas {

// Where a host NIC plugs in: the transmit end of its access link plus its
// assigned addresses. The NIC attaches itself as the receiving NetDevice.
struct HostPort {
  LinkEnd end;
  Link* access_link = nullptr;
  IpAddr ip = 0;
  MacAddr mac = 0;
};

class Network {
 public:
  explicit Network(Simulator* sim) : sim_(sim) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator* sim() const { return sim_; }

  Link* AddLink(const LinkConfig& config);
  Switch* AddSwitch(const std::string& name);

  // Creates a host with a dedicated access link to `sw`. Returns host index.
  int AttachHost(IpAddr ip, Switch* sw, const LinkConfig& config);

  // Creates a host on one end of a bare link (no switch). Both hosts of a
  // point-to-point topology are created this way on the same link.
  int AttachHostToLink(IpAddr ip, Link* link, int side);

  void ConnectSwitches(Switch* a, Switch* b, const LinkConfig& config);

  // Installs ECMP shortest-path routes for every host IP on every switch.
  void ComputeRoutes();

  HostPort& host(size_t i) { return hosts_[i]; }
  size_t num_hosts() const { return hosts_.size(); }
  size_t num_switches() const { return switches_.size(); }
  Switch* switch_at(size_t i) { return switches_[i].get(); }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  // --- Fault-schedule targeting ----------------------------------------------
  // Host i's access link ("flap host 2's link").
  Link* host_link(size_t i) { return hosts_[i].access_link; }
  // The link joining two switches ("the switch uplink"); null if not adjacent.
  Link* SwitchLink(const Switch* a, const Switch* b) const;

 private:
  struct SwitchEdge {
    size_t a;        // Switch index.
    size_t b;        // Switch index.
    int port_on_a;
    int port_on_b;
    Link* link;
  };
  struct HostEdge {
    size_t host;
    size_t sw;
    int port_on_sw;
  };

  Simulator* sim_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<HostPort> hosts_;
  std::vector<SwitchEdge> switch_edges_;
  std::vector<HostEdge> host_edges_;
};

// Two hosts, one link, no switch.
std::unique_ptr<Network> MakePointToPoint(Simulator* sim, const LinkConfig& config,
                                          IpAddr ip_a = MakeIp(10, 0, 0, 1),
                                          IpAddr ip_b = MakeIp(10, 0, 0, 2));

// N hosts around a single switch; per-host link configs allow mixing the
// paper's 40G server with 10G clients. Host i gets IP 10.0.0.(i+1).
std::unique_ptr<Network> MakeStar(Simulator* sim, const std::vector<LinkConfig>& host_links);

// n_left + n_right hosts on two switches joined by a bottleneck link.
std::unique_ptr<Network> MakeDumbbell(Simulator* sim, size_t n_left, size_t n_right,
                                      const LinkConfig& host_link,
                                      const LinkConfig& bottleneck);

struct FatTreeConfig {
  // k-ary fat tree: k pods, k/2 edge + k/2 aggregation switches per pod,
  // (k/2)^2 core switches. k must be even.
  int k = 4;
  // Hosts attached to each edge switch. hosts_per_edge == k/2 is full
  // bisection; k/2 * 4 gives the paper's 1:4 oversubscription.
  int hosts_per_edge = 2;
  LinkConfig host_link;
  LinkConfig fabric_link;  // Edge<->agg and agg<->core links.
};

std::unique_ptr<Network> MakeFatTree(Simulator* sim, const FatTreeConfig& config);

}  // namespace tas

#endif  // SRC_NET_TOPOLOGY_H_
