#include "src/net/topology.h"

#include <deque>
#include <limits>

namespace tas {

Link* Network::AddLink(const LinkConfig& config) {
  links_.push_back(std::make_unique<Link>(sim_, config));
  return links_.back().get();
}

Switch* Network::AddSwitch(const std::string& name) {
  switches_.push_back(std::make_unique<Switch>(sim_, name));
  return switches_.back().get();
}

int Network::AttachHost(IpAddr ip, Switch* sw, const LinkConfig& config) {
  Link* link = AddLink(config);
  const int port = sw->AddPort(LinkEnd{link, 1});

  size_t sw_index = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < switches_.size(); ++i) {
    if (switches_[i].get() == sw) {
      sw_index = i;
      break;
    }
  }
  TAS_CHECK(sw_index != std::numeric_limits<size_t>::max());

  // Default link seed = f(endpoint identities): host IP and switch index,
  // tagged so the two identity spaces cannot collide.
  link->MixDefaultSeed((1ull << 40) | ip);
  link->MixDefaultSeed((2ull << 40) | sw_index);

  HostPort hp;
  hp.end = LinkEnd{link, 0};
  hp.access_link = link;
  hp.ip = ip;
  hp.mac = 0x020000000000ull | (hosts_.size() + 1);
  hosts_.push_back(hp);
  host_edges_.push_back(HostEdge{hosts_.size() - 1, sw_index, port});
  return static_cast<int>(hosts_.size()) - 1;
}

int Network::AttachHostToLink(IpAddr ip, Link* link, int side) {
  link->MixDefaultSeed((1ull << 40) | ip);
  HostPort hp;
  hp.end = LinkEnd{link, side};
  hp.access_link = link;
  hp.ip = ip;
  hp.mac = 0x020000000000ull | (hosts_.size() + 1);
  hosts_.push_back(hp);
  return static_cast<int>(hosts_.size()) - 1;
}

void Network::ConnectSwitches(Switch* a, Switch* b, const LinkConfig& config) {
  Link* link = AddLink(config);
  const int port_a = a->AddPort(LinkEnd{link, 0});
  const int port_b = b->AddPort(LinkEnd{link, 1});

  size_t ia = std::numeric_limits<size_t>::max();
  size_t ib = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < switches_.size(); ++i) {
    if (switches_[i].get() == a) {
      ia = i;
    }
    if (switches_[i].get() == b) {
      ib = i;
    }
  }
  TAS_CHECK(ia != std::numeric_limits<size_t>::max() && ib != std::numeric_limits<size_t>::max());
  link->MixDefaultSeed((2ull << 40) | ia);
  link->MixDefaultSeed((2ull << 40) | ib);
  switch_edges_.push_back(SwitchEdge{ia, ib, port_a, port_b, link});
}

Link* Network::SwitchLink(const Switch* a, const Switch* b) const {
  for (const SwitchEdge& e : switch_edges_) {
    const Switch* ea = switches_[e.a].get();
    const Switch* eb = switches_[e.b].get();
    if ((ea == a && eb == b) || (ea == b && eb == a)) {
      return e.link;
    }
  }
  return nullptr;
}

void Network::ComputeRoutes() {
  const size_t n = switches_.size();
  // Adjacency: for each switch, (neighbor switch, local port).
  std::vector<std::vector<std::pair<size_t, int>>> adj(n);
  for (const SwitchEdge& e : switch_edges_) {
    adj[e.a].emplace_back(e.b, e.port_on_a);
    adj[e.b].emplace_back(e.a, e.port_on_b);
  }
  for (auto& sw : switches_) {
    sw->ClearRoutes();
  }

  // For each host: BFS over the switch graph from its attachment switch,
  // then install all equal-cost next hops toward it on every switch.
  for (const HostEdge& he : host_edges_) {
    const IpAddr dst = hosts_[he.host].ip;
    std::vector<int> dist(n, -1);
    std::deque<size_t> frontier;
    dist[he.sw] = 0;
    frontier.push_back(he.sw);
    while (!frontier.empty()) {
      const size_t u = frontier.front();
      frontier.pop_front();
      for (const auto& [v, port] : adj[u]) {
        (void)port;
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          frontier.push_back(v);
        }
      }
    }
    switches_[he.sw]->AddRoute(dst, he.port_on_sw);
    for (size_t u = 0; u < n; ++u) {
      if (u == he.sw || dist[u] < 0) {
        continue;
      }
      for (const auto& [v, port] : adj[u]) {
        if (dist[v] == dist[u] - 1) {
          switches_[u]->AddRoute(dst, port);
        }
      }
    }
  }
}

std::unique_ptr<Network> MakePointToPoint(Simulator* sim, const LinkConfig& config, IpAddr ip_a,
                                          IpAddr ip_b) {
  auto net = std::make_unique<Network>(sim);
  Link* link = net->AddLink(config);
  net->AttachHostToLink(ip_a, link, 0);
  net->AttachHostToLink(ip_b, link, 1);
  return net;
}

std::unique_ptr<Network> MakeStar(Simulator* sim, const std::vector<LinkConfig>& host_links) {
  auto net = std::make_unique<Network>(sim);
  Switch* sw = net->AddSwitch("tor");
  for (size_t i = 0; i < host_links.size(); ++i) {
    net->AttachHost(MakeIp(10, 0, 0, static_cast<uint8_t>(i + 1)), sw, host_links[i]);
  }
  net->ComputeRoutes();
  return net;
}

std::unique_ptr<Network> MakeDumbbell(Simulator* sim, size_t n_left, size_t n_right,
                                      const LinkConfig& host_link, const LinkConfig& bottleneck) {
  auto net = std::make_unique<Network>(sim);
  Switch* left = net->AddSwitch("left");
  Switch* right = net->AddSwitch("right");
  net->ConnectSwitches(left, right, bottleneck);
  for (size_t i = 0; i < n_left; ++i) {
    net->AttachHost(MakeIp(10, 0, 1, static_cast<uint8_t>(i + 1)), left, host_link);
  }
  for (size_t i = 0; i < n_right; ++i) {
    net->AttachHost(MakeIp(10, 0, 2, static_cast<uint8_t>(i + 1)), right, host_link);
  }
  net->ComputeRoutes();
  return net;
}

std::unique_ptr<Network> MakeFatTree(Simulator* sim, const FatTreeConfig& config) {
  const int k = config.k;
  TAS_CHECK(k >= 2 && k % 2 == 0);
  const int half = k / 2;
  auto net = std::make_unique<Network>(sim);

  // Core switches: half*half of them.
  std::vector<Switch*> core;
  for (int i = 0; i < half * half; ++i) {
    core.push_back(net->AddSwitch("core" + std::to_string(i)));
  }

  int host_counter = 0;
  for (int pod = 0; pod < k; ++pod) {
    std::vector<Switch*> edge;
    std::vector<Switch*> agg;
    for (int i = 0; i < half; ++i) {
      edge.push_back(net->AddSwitch("p" + std::to_string(pod) + "e" + std::to_string(i)));
      agg.push_back(net->AddSwitch("p" + std::to_string(pod) + "a" + std::to_string(i)));
    }
    // Edge <-> agg full mesh within the pod.
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        net->ConnectSwitches(edge[e], agg[a], config.fabric_link);
      }
    }
    // Agg a connects to core switches [a*half, (a+1)*half).
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) {
        net->ConnectSwitches(agg[a], core[a * half + c], config.fabric_link);
      }
    }
    // Hosts on edge switches.
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < config.hosts_per_edge; ++h) {
        ++host_counter;
        const IpAddr ip = MakeIp(10, static_cast<uint8_t>(host_counter >> 16),
                                 static_cast<uint8_t>(host_counter >> 8),
                                 static_cast<uint8_t>(host_counter));
        net->AttachHost(ip, edge[e], config.host_link);
      }
    }
  }
  net->ComputeRoutes();
  return net;
}

}  // namespace tas
