// Experiment harness: wires simulated hosts (CPU cores + NIC + one of the
// five stacks) onto a network topology, so each benchmark reads like the
// paper's testbed setup: "one 24-core server with a 40G NIC, six 6-core
// clients with 10G NICs, all on one switch".
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/engine_stack.h"
#include "src/baseline/stack_iface.h"
#include "src/fault/injector.h"
#include "src/libtas/tas_stack.h"
#include "src/net/topology.h"
#include "src/sim/context.h"
#include "src/tas/service.h"

namespace tas {

enum class StackKind {
  kTas,          // TAS with POSIX sockets ("TAS SO").
  kTasLowLevel,  // TAS with the low-level API ("TAS LL").
  kLinux,
  kIx,
  kMtcp,
};

const char* StackKindName(StackKind kind);

struct HostSpec {
  StackKind stack = StackKind::kLinux;
  int app_cores = 1;
  // TAS: maximum fast-path cores. mTCP: dedicated stack cores. Ignored by
  // Linux/IX (stack shares app cores).
  int stack_cores = 2;
  // Optional overrides; when unset the kind's calibrated defaults are used.
  TasConfig tas;
  bool tas_overridden = false;
  EngineStackConfig engine;
  bool engine_overridden = false;
};

// A host instantiated on the network: its application cores, its stack, and
// (for TAS hosts) the TAS service process.
class SimHost {
 public:
  SimHost(Simulator* sim, HostPort* port, const HostSpec& spec);

  Stack* stack() { return stack_.get(); }
  TasService* tas() { return tas_.get(); }            // Null for baselines.
  EngineStack* engine() { return engine_; }           // Null for TAS hosts.
  Core* app_core(size_t i) { return app_cores_[i].get(); }
  size_t num_app_cores() const { return app_cores_.size(); }
  std::vector<Core*> AppCorePtrs();
  IpAddr ip() const { return ip_; }
  const HostSpec& spec() const { return spec_; }

  // Total cycles burned across app + stack cores, by module.
  uint64_t TotalCycles(CpuModule module) const;
  uint64_t TotalCycles() const;

 private:
  HostSpec spec_;
  IpAddr ip_;
  std::vector<std::unique_ptr<Core>> app_cores_;
  std::unique_ptr<TasService> tas_;
  std::unique_ptr<Stack> stack_;
  EngineStack* engine_ = nullptr;  // Aliases stack_ when baseline.
};

// A full experiment: simulator + topology + hosts.
class Experiment {
 public:
  // The experiment's simulator runs against its own context (packet pool,
  // tracers, flight recorder), so experiments in one process share no state
  // and may be built, run and destroyed in any interleaving.
  Experiment();
  // Auto-dumps traces when TAS_TRACE_OUT is set (see MaybeWriteTraces).
  ~Experiment();

  PacketPool& packet_pool() { return sim_.context().pool(); }
  Simulator& sim() { return sim_; }
  Network* net() { return net_.get(); }
  SimHost& host(size_t i) { return *hosts_[i]; }
  size_t num_hosts() const { return hosts_.size(); }

  // Host i's access link — the usual fault-schedule target.
  Link* host_link(size_t i) { return net_->host(i).access_link; }
  // The experiment's fault injector (created on first use). Typical scenario:
  //   FaultSchedule chaos;
  //   chaos.LinkFlap(Ms(50), Ms(10), exp->host_link(2));
  //   exp->faults().Install(std::move(chaos));
  FaultInjector& faults() {
    if (faults_ == nullptr) {
      faults_ = std::make_unique<FaultInjector>(&sim_);
    }
    return *faults_;
  }

  // Writes every TAS host's trace bundle (metrics / flow events / time
  // series JSONL + Perfetto JSON) to "<prefix>.h<i>.*". Returns the number
  // of hosts written.
  size_t WriteTraces(const std::string& prefix);
  // Env-var knob: when TAS_TRACE_OUT=<prefix> is set, dumps traces there.
  // No-op otherwise. Runs automatically from the destructor.
  void MaybeWriteTraces();

  // Hosts around one switch. specs[i] uses links[i] (or links[0] if only one
  // link config is given).
  static std::unique_ptr<Experiment> Star(const std::vector<HostSpec>& specs,
                                          const std::vector<LinkConfig>& links);

  // Two hosts, one link.
  static std::unique_ptr<Experiment> PointToPoint(const HostSpec& a, const HostSpec& b,
                                                  const LinkConfig& link);

  // Hosts on a custom topology: `build` constructs the network on the
  // experiment's simulator (e.g. MakeFatTree); host i of the network gets
  // specs[i % specs.size()].
  static std::unique_ptr<Experiment> Custom(
      const std::function<std::unique_ptr<Network>(Simulator*)>& build,
      const std::vector<HostSpec>& specs);

 private:
  // Switches belong to the network, not any host, so the harness exports
  // their counters (forwarded, pending_hw, per-port queue depth) into the
  // first TAS host's metric registry — the bundle WriteTraces dumps.
  void RegisterSwitchMetrics();
  // Builds one SimHost per network host (host i gets specs[i % size]) and
  // names each armed watchdog source after its host index.
  void AddHosts(const std::vector<HostSpec>& specs);

  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::unique_ptr<FaultInjector> faults_;
};

// Scale control: benches run reduced configurations by default on this
// 1-CPU machine; TAS_SCALE=full runs closer to paper scale.
bool FullScale();
// Returns `full` when TAS_SCALE=full, otherwise `reduced`.
size_t ScalePick(size_t reduced, size_t full);

// Trace control: TAS_TRACE_OUT=<path-prefix> enables full tracing (flow
// events, CPU spans, periodic sampling) on every TAS host the harness builds
// and makes Experiment dump per-host trace bundles under the prefix on
// teardown. Returns nullptr when unset.
const char* TraceOutPrefix();

// Watchdog control: TAS_WATCHDOG=<path-prefix> arms the flight recorder +
// SLO watchdog on every TAS host the harness builds; triggered diagnostic
// bundles land under the prefix. The special value "-" arms in-memory only
// (triggers are recorded, no files are written). Returns nullptr when unset.
const char* WatchdogOutPrefix();

}  // namespace tas

#endif  // SRC_HARNESS_EXPERIMENT_H_
