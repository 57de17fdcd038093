#include "perfbench/workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include <time.h>

#include "perfbench/boundary.h"
#include "perfbench/layers.h"
#include "src/app/rpc_echo.h"
#include "src/cpu/cost_model.h"
#include "src/harness/experiment.h"
#include "src/harness/flowgen.h"
#include "src/net/topology.h"
#include "src/proxy/origin_server.h"
#include "src/proxy/proxy_client.h"
#include "src/proxy/proxy_server.h"
#include "src/trace/causal.h"
#include "src/trace/latency.h"
#include "src/util/stats.h"

namespace perfbench {
namespace {

using tas::Ms;
using tas::TimeNs;
using tas::Us;
using Clock = std::chrono::steady_clock;

// Host time is sampled per slice of the measured phase, so a burst of
// interference from other processes spoils a few slices, not a round.
constexpr TimeNs kSlice = Ms(10);

// CPU seconds consumed by this process. The benchmark is single-threaded, so
// this is its wall time minus the time it spent descheduled, which on a
// shared machine is most of the run-to-run noise.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// SplitMix64 over (seed, stream): independent, never-zero seeds for each
// random input of a workload (0 would ask links to derive their own).
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

tas::LinkConfig StarLink(double gbps, uint64_t rng_seed) {
  tas::LinkConfig link;
  link.gbps = gbps;
  link.propagation_delay = Us(1);
  link.queue_limit_pkts = 6000;
  link.rng_seed = rng_seed;
  return link;
}

tas::HostSpec TasHost(int app_cores, int fastpath_cores, uint32_t buffer_bytes) {
  tas::HostSpec spec;
  spec.stack = tas::StackKind::kTas;
  spec.app_cores = app_cores;
  spec.stack_cores = fastpath_cores;
  spec.tas_overridden = true;
  spec.tas.max_fastpath_cores = fastpath_cores;
  spec.tas.rx_buffer_bytes = buffer_bytes;
  spec.tas.tx_buffer_bytes = buffer_bytes;
  return spec;
}

// A client machine that is never the bottleneck: the IX engine stack with
// near-zero per-op costs on four cores.
tas::HostSpec IdealClientHost() {
  tas::HostSpec spec;
  spec.stack = tas::StackKind::kIx;
  spec.app_cores = 4;
  spec.engine_overridden = true;
  spec.engine = tas::IxStackConfig();
  spec.engine.costs = &tas::MinimalCostModel();
  spec.engine.tcp.tx_buffer_bytes = 16 * 1024;
  spec.engine.tcp.rx_buffer_bytes = 16 * 1024;
  return spec;
}

// Appends every sample `recorder` holds (not a downsampled CDF), scaled to
// microseconds.
void AddSamples(const tas::LatencyRecorder& recorder, double scale, std::vector<double>* out) {
  for (const auto& [value, frac] : recorder.Cdf(std::max<uint64_t>(1, recorder.count()))) {
    (void)frac;
    out->push_back(value * scale);
  }
}

// Same closest-rank interpolation as LatencyRecorder::Percentile.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

// One workload instance. Run() is the fixed round skeleton; subclasses
// build the experiment and applications, drive the phases and check the
// outputs. Member order matters for teardown: subclass applications die
// first, then the experiment, then the stack decorators it calls into.
class Rig {
 public:
  explicit Rig(uint64_t seed) : seed_(seed) {}
  virtual ~Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void Run(RoundMode mode, RoundResult* out);

 protected:
  // Creates exp_, calls WrapStacks(), and starts the applications on stack().
  virtual void Build(bool traced) = 0;
  virtual void Warmup() = 0;
  virtual void BeginMeasure() {}
  // Advances the measured phase by one slice of about kSlice simulated
  // time; returns true once the phase is over.
  virtual bool MeasureSlice() = 0;
  // Ops completed so far: the unit of host.ops_per_s.
  virtual uint64_t OpsCompleted() const = 0;
  // Fills ops / attempted / failed / sim and the correctness failures.
  virtual void Finish(RoundResult* out) = 0;
  // Workload-specific per-layer metrics (the proxy and critical path).
  virtual void AddWorkloadLayers(RoundResult* out) { (void)out; }

  void WrapStacks();
  tas::Stack* stack(size_t host) { return stacks_[host].get(); }
  tas::Simulator* sim() { return &exp_->sim(); }
  double measured_sim_s() const { return tas::ToSec(measure_end_ - measure_start_); }
  uint64_t connect_failures() const;

  const uint64_t seed_;
  std::vector<size_t> cycle_hosts_;  // Hosts whose cycles count toward cycles_per_op.
  tas::MetricRegistry bench_metrics_;
  LayerProbe probe_;
  SpanClock clock_;
  std::vector<std::unique_ptr<TracedStack>> stacks_;
  std::unique_ptr<tas::Experiment> exp_;

 private:
  void AddLayers(RoundResult* out);

  TimeNs measure_start_ = 0;
  TimeNs measure_end_ = 0;
  std::array<uint64_t, tas::kNumCpuModules> cycles_{};
  uint64_t cancelled_ = 0;
};

void Rig::WrapStacks() {
  for (size_t i = 0; i < exp_->num_hosts(); ++i) {
    tas::SimHost& host = exp_->host(i);
    const Boundary layer = host.tas() != nullptr ? Boundary::kLibtas : Boundary::kEngine;
    stacks_.push_back(std::make_unique<TracedStack>(host.stack(), layer, &clock_, sim()));
  }
}

uint64_t Rig::connect_failures() const {
  uint64_t n = 0;
  for (const auto& s : stacks_) {
    n += s->counts().connect_failures;
  }
  return n;
}

void Rig::Run(RoundMode mode, RoundResult* out) {
  const bool traced = mode == RoundMode::kTraced;
  const double build_start = CpuSeconds();
  Build(traced);
  // Network-wide counters: every link and switch, not only the access links
  // and first-host switch view the TAS registries carry.
  tas::Network* net = exp_->net();
  for (size_t i = 0; i < net->links().size(); ++i) {
    net->links()[i]->RegisterMetrics(&bench_metrics_, "net.link." + std::to_string(i));
  }
  for (size_t i = 0; i < net->num_switches(); ++i) {
    net->switch_at(i)->RegisterMetrics(&bench_metrics_, "net.switch." + std::to_string(i));
  }
  probe_.Add(&bench_metrics_);
  for (size_t i = 0; i < exp_->num_hosts(); ++i) {
    if (tas::TasService* service = exp_->host(i).tas()) {
      probe_.Add(&service->tracer().metrics());
    }
  }
  out->build_s = CpuSeconds() - build_start;

  const double warmup_start = CpuSeconds();
  Warmup();
  out->warmup_s = CpuSeconds() - warmup_start;
  if (mode == RoundMode::kSetupOnly) {
    return;
  }

  BeginMeasure();
  measure_start_ = sim()->Now();
  probe_.Begin();
  // Cycle counters are unsigned: subtracting the start value now and adding
  // the end value later leaves the (modular) difference.
  for (size_t h : cycle_hosts_) {
    for (int m = 0; m < tas::kNumCpuModules; ++m) {
      cycles_[static_cast<size_t>(m)] -= exp_->host(h).TotalCycles(static_cast<tas::CpuModule>(m));
    }
  }
  const uint64_t events_before = sim()->events_executed();
  cancelled_ = sim()->cancelled_events();
  clock_.Reset(traced);
  const auto measure_wall_start = Clock::now();
  const double measure_start = CpuSeconds();
  double slice_start = measure_start;
  uint64_t slice_ops = OpsCompleted();
  for (bool done = false; !done;) {
    done = MeasureSlice();
    const double now = CpuSeconds();
    const uint64_t ops = OpsCompleted();
    out->slice_ops_per_s.push_back(static_cast<double>(ops - slice_ops) / (now - slice_start));
    slice_start = now;
    slice_ops = ops;
  }
  out->measure_s = CpuSeconds() - measure_start;
  out->measure_wall_s = std::chrono::duration<double>(Clock::now() - measure_wall_start).count();
  measure_end_ = sim()->Now();
  probe_.End();
  for (size_t h : cycle_hosts_) {
    for (int m = 0; m < tas::kNumCpuModules; ++m) {
      cycles_[static_cast<size_t>(m)] += exp_->host(h).TotalCycles(static_cast<tas::CpuModule>(m));
    }
  }
  out->events = sim()->events_executed() - events_before;
  cancelled_ = sim()->cancelled_events() - cancelled_;

  Finish(out);
  for (uint64_t c : cycles_) {
    out->cycles += c;
  }
  out->sim_s = measured_sim_s();
  if (traced) {
    AddLayers(out);
    AddWorkloadLayers(out);
  }
  out->absent = probe_.absent();
}

void Rig::AddLayers(RoundResult* out) {
  const double ops = static_cast<double>(out->ops);
  auto& l = out->layers;

  l["sim.events_per_op"] = Per(static_cast<double>(out->events), ops);
  l["sim.max_pending_events"] = static_cast<double>(sim()->max_pending_events());
  l["sim.cancelled_per_op"] = Per(static_cast<double>(cancelled_), ops);

  const double link_mb = probe_.SumMatching("net.link.", ".tx_bytes") / 1e6;
  l["net.pkts_per_op"] = Per(probe_.SumMatching("net.link.", ".tx_packets"), ops);
  const tas::PacketPoolStats pool = exp_->packet_pool().stats();
  l["net.pktpool.alloc_frac"] = Per(static_cast<double>(pool.allocated),
                                    static_cast<double>(pool.allocated + pool.reused));
  l["net.switch.forwarded_per_op"] = Per(probe_.SumMatching("net.switch.", ".forwarded"), ops);
  l["net.link.ecn_marks_per_mb"] = Per(probe_.SumMatching("net.link.", ".ecn_marks"), link_mb);
  l["net.link.drops_overflow"] = probe_.SumMatching("net.link.", ".drops_overflow");
  l["net.link.queue_hw_pkts"] = probe_.MaxMatching("net.link.", ".queue_hw_pkts");

  l["nic.rx_drops"] = probe_.Sum("nic.rx_drops");
  l["nic.ring_depth_hw"] = probe_.MaxMatching("nic.ring.", ".depth_hw");

  const double rx = probe_.Sum("tas.fastpath.rx_packets");
  l["fp.batch_avg"] = Per(probe_.Sum("tas.fastpath.batch_items"), probe_.Sum("tas.fastpath.batches"));
  l["fp.work_queue_hw"] = probe_.MaxMatching("tas.fastpath.work_queue_hw", "");
  l["fp.exception_frac"] = Per(probe_.Sum("tas.fastpath.exceptions"), rx);

  l["sp.conns_per_op"] = Per(probe_.Sum("tas.slowpath.connections_established"), ops);
  l["sp.handshake_retx"] = probe_.Sum("tas.slowpath.handshake_retransmits");
  l["sp.timeout_retx"] = probe_.Sum("tas.slowpath.timeout_retransmits");
  l["sp.control_iterations_per_ms"] =
      Per(probe_.Sum("tas.slowpath.control_iterations"), measured_sim_s() * 1e3);

  l["ft.lookups_per_pkt"] = Per(probe_.Sum("tas.flow_table.lookups"), rx);
  l["ft.probe_p99"] = probe_.MaxMatching("tas.flow_table.probe_p99", "");
  l["ft.rehashes"] = probe_.Sum("tas.flow_table.rehashes");

  l["cc.retx_per_mb"] = Per(probe_.Sum("tas.fastpath.fast_retransmits") +
                                probe_.Sum("tas.slowpath.timeout_retransmits"),
                            link_mb);
  l["cc.ooo_accepted_per_mb"] = Per(probe_.Sum("tas.fastpath.ooo_accepted"), link_mb);

  l["shm.doorbells_coalesced_per_op"] = Per(probe_.Sum("tas.contexts.doorbells_coalesced"), ops);
  l["shm.ctx_dropped_events"] = probe_.Sum("tas.contexts.dropped_events");
  l["shm.ctx_queue_hw"] = std::max(probe_.MaxMatching("tas.contexts.rx_queue_hw", ""),
                                   probe_.MaxMatching("tas.contexts.tx_queue_hw", ""));

  // Spans are wall-clock, so the uncovered remainder is too.
  const double measured_ns = out->measure_wall_s * 1e9;
  l["libtas.self_ns_per_op"] = Per(static_cast<double>(clock_.self_ns(Boundary::kLibtas)), ops);
  l["engine.self_ns_per_op"] = Per(static_cast<double>(clock_.self_ns(Boundary::kEngine)), ops);
  l["app.self_ns_per_op"] = Per(static_cast<double>(clock_.self_ns(Boundary::kApp)), ops);
  l["below_socket.self_ns_per_op"] =
      Per(measured_ns - static_cast<double>(clock_.covered_ns()), ops);

  static_assert(std::size(kCpuModuleMetricNames) == tas::kNumCpuModules);
  for (size_t m = 0; m < cycles_.size(); ++m) {
    l[std::string("cpu.") + kCpuModuleMetricNames[m] + ".cycles_per_op"] =
        Per(static_cast<double>(cycles_[m]), ops);
  }

  // Latency anatomy, from the host whose tracer the stamps were sunk into.
  const tas::LatencyReport lat = exp_->host(0).tas()->tracer().latency().Report();
  for (int s = 0; s < tas::kNumLatencyStages; ++s) {
    const char* stage = tas::LatencyStageName(static_cast<tas::LatencyStage>(s));
    const tas::LatencyStageSummary* row = lat.Find(stage);
    l[std::string("lat.") + stage + ".mean_us"] = row != nullptr ? row->mean_ns / 1e3 : 0;
  }

  l["trace.records_per_op"] =
      Per(probe_.Sum("latency.completed") + probe_.Sum("causal.completed"), ops);
  l["trace.dropped"] = probe_.Sum("trace.dropped_records") + probe_.Sum("trace.dropped_spans");

  // Zero unless the workload has a proxy tier (see ProxyRig).
  for (const char* name : {"proxy.hit_rate", "proxy.coalesced_frac", "proxy.pool_conns_hw",
                           "proxy.spliced_bytes_per_op"}) {
    l[name] = 0;
  }
  for (int e = 0; e < tas::kNumCausalEdges; ++e) {
    l[std::string("cp.") + tas::CausalEdgeName(static_cast<tas::CausalEdge>(e)) + ".mean_us"] = 0;
  }
}

// --- echo_pipelined ---------------------------------------------------------
// A TAS server (1 app core, 2 fast-path cores, 64 KiB buffers) behind one
// switch, saturated by 1,000 long-lived 64 B echo connections from 4 ideal
// IX clients, closed loop with 2 requests in flight per connection. At 4 or
// more in flight the program starves a quarter or more of the connections
// for the whole measured phase (and at 16 overflows the server's context
// queue), which the progress check below reports as failures.
class EchoRig : public Rig {
 public:
  using Rig::Rig;

 private:
  static constexpr size_t kConnections = 1000;
  static constexpr size_t kClients = 4;
  static constexpr size_t kDepth = 2;
  static constexpr size_t kMessageBytes = 64;
  // The single slow-path core accepts ~45k cycles per connection; ramp
  // connections over 3/4 of the warm-up.
  static constexpr TimeNs kWarmup = Ms(10) + static_cast<TimeNs>(kConnections) * Us(30);
  static constexpr TimeNs kMeasure = Ms(100);

  void Build(bool traced) override {
    std::vector<tas::HostSpec> specs{TasHost(1, 2, 64 * 1024)};
    specs[0].tas.trace.latency_stages = traced;
    std::vector<tas::LinkConfig> links{StarLink(40.0, MixSeed(seed_, 1))};
    for (size_t i = 0; i < kClients; ++i) {
      specs.push_back(IdealClientHost());
      links.push_back(StarLink(10.0, MixSeed(seed_, 2)));
    }
    exp_ = tas::Experiment::Star(specs, links);
    WrapStacks();
    cycle_hosts_ = {0};

    tas::EchoServerConfig sc;
    sc.request_bytes = kMessageBytes;
    sc.response_bytes = kMessageBytes;
    sc.app_cycles = 250;
    server_ = std::make_unique<tas::EchoServer>(sim(), stack(0), sc);
    server_->Start();
    for (size_t i = 0; i < kClients; ++i) {
      tas::EchoClientConfig cc;
      cc.server_ip = exp_->host(0).ip();
      cc.num_connections = kConnections / kClients;
      cc.request_bytes = kMessageBytes;
      cc.response_bytes = kMessageBytes;
      cc.pipeline_depth = kDepth;
      cc.connect_spread = kWarmup * 3 / 4;
      cc.first_request_at = kWarmup - Ms(2);
      clients_.push_back(std::make_unique<tas::EchoClient>(sim(), stack(1 + i), cc));
      clients_.back()->Start();
    }
  }

  void Warmup() override { sim()->RunUntil(kWarmup); }

  uint64_t Issued() const {
    uint64_t bytes = 0;
    for (size_t i = 0; i < kClients; ++i) {
      bytes += stacks_[1 + i]->counts().send_bytes;
    }
    return bytes / kMessageBytes;
  }

  uint64_t OpsCompleted() const override {
    uint64_t n = 0;
    for (const auto& c : clients_) {
      n += c->completed();
    }
    return n;
  }

  void BeginMeasure() override {
    uint64_t connected = 0;
    for (size_t i = 0; i < kClients; ++i) {
      connected += stacks_[1 + i]->counts().connected;
    }
    if (connected != kConnections) {
      failures_.push_back("only " + std::to_string(connected) + " of " +
                          std::to_string(kConnections) + " connections up after warm-up");
    }
    for (auto& c : clients_) {
      c->BeginMeasurement();
    }
    data_before_.clear();
    for (size_t i = 0; i < kClients; ++i) {
      data_before_.push_back(stacks_[1 + i]->data_callbacks());
    }
    issued_before_ = Issued();
    completed_before_ = OpsCompleted();
  }

  bool MeasureSlice() override {
    sim()->RunUntil(std::min(sim()->Now() + kSlice, kWarmup + kMeasure));
    return sim()->Now() >= kWarmup + kMeasure;
  }

  void Finish(RoundResult* out) override {
    const uint64_t issued = Issued();
    const uint64_t completed = OpsCompleted();
    const uint64_t served = server_->requests_served();
    uint64_t reconnects = connect_failures();
    for (const auto& c : clients_) {
      reconnects += c->reconnects();
    }
    // Closed loop: every issued request is either answered or one of the
    // kConnections * kDepth still in flight, and the server has served every
    // answered request and no request that was never issued.
    const uint64_t in_flight = issued - completed;
    // A closed-loop connection whose answer never arrives stops issuing, and
    // the counts above cannot tell it from one in flight: every connection
    // must also have received data during the measured phase.
    uint64_t progressed = 0;
    for (size_t i = 0; i < kClients; ++i) {
      for (const auto& [conn, n] : stacks_[1 + i]->data_callbacks()) {
        const auto before = data_before_[i].find(conn);
        progressed += before == data_before_[i].end() || before->second < n ? 1 : 0;
      }
    }
    const uint64_t stalled = kConnections - std::min<uint64_t>(progressed, kConnections);
    const uint64_t unanswered = in_flight > kConnections * kDepth
                                    ? in_flight - kConnections * kDepth
                                    : kConnections * kDepth - in_flight;
    out->ops = completed - completed_before_;
    out->attempted = issued - issued_before_;
    out->failed = reconnects + unanswered + stalled;
    out->failures = failures_;
    if (reconnects != 0) {
      out->failures.push_back(std::to_string(reconnects) + " reconnects or failed connects");
    }
    if (unanswered != 0) {
      out->failures.push_back("closed loop lost track of " + std::to_string(unanswered) +
                              " requests (issued " + std::to_string(issued) + ", answered " +
                              std::to_string(completed) + ")");
    }
    if (stalled != 0) {
      out->failures.push_back(std::to_string(stalled) +
                              " connections received nothing during the measured phase");
    }
    if (served < completed || served > issued) {
      out->failures.push_back("server served " + std::to_string(served) +
                              " requests, clients issued " + std::to_string(issued) +
                              " and saw " + std::to_string(completed) + " answered");
    }
    uint64_t short_sends = 0;
    for (size_t i = 0; i < kClients; ++i) {
      short_sends += stacks_[1 + i]->counts().short_sends;
    }
    if (short_sends != 0) {
      out->failures.push_back("client send buffers refused requests");
    }
    for (const auto& c : clients_) {
      AddSamples(c->latency(), 1.0, &out->samples["latency"]);  // Recorded in microseconds.
    }
  }

  std::unique_ptr<tas::EchoServer> server_;
  std::vector<std::unique_ptr<tas::EchoClient>> clients_;
  std::vector<std::string> failures_;
  std::vector<std::unordered_map<tas::ConnId, uint64_t>> data_before_;  // Per client host.
  uint64_t issued_before_ = 0;
  uint64_t completed_before_ = 0;
};

// --- proxy_churn ------------------------------------------------------------
// The reverse-proxy churn rig (zipf alpha 0.9): all three hosts run TAS; 128
// concurrent short-lived, half-closing client connections of 2 requests
// each, through at most 64 pooled origin connections, with a 256 KiB cache,
// splicing for bodies >= 1 KiB, latency stamping and causal tracing on.
// At 256 concurrent connections the proxy's slow path saturates and every
// latency percentile moves by 10-80% between seeds; at 128 they move < 4%.
class ProxyRig : public Rig {
 public:
  using Rig::Rig;

 private:
  static constexpr size_t kConnections = 10000;
  static constexpr size_t kConcurrency = 128;
  static constexpr size_t kWarmConnections = 1000;
  static constexpr size_t kRequestsPerConnection = 2;
  static constexpr uint64_t kTarget = kConnections * kRequestsPerConnection;
  static constexpr TimeNs kStep = Ms(1);
  static constexpr TimeNs kDeadline = tas::Sec(30);

  void Build(bool traced) override {
    (void)traced;  // Stamping and causal tracing are part of this workload.
    tas::HostSpec proxy_host = TasHost(1, 2, 64 * 1024);
    proxy_host.tas.trace.latency_stages = true;
    proxy_host.tas.trace.causal = true;
    // Queued requests can outlive thousands of newer trace mints; a 16k-slot
    // ring keeps the churn drop-free.
    proxy_host.tas.trace.causal_trace_capacity = 1u << 14;
    const tas::LinkConfig edge = StarLink(10.0, MixSeed(seed_, 2));
    exp_ = tas::Experiment::Star({proxy_host, TasHost(1, 2, 64 * 1024), TasHost(1, 2, 64 * 1024)},
                                 {StarLink(40.0, MixSeed(seed_, 1)), edge, edge});
    WrapStacks();
    cycle_hosts_ = {0};

    tas::OriginServerConfig oc;
    oc.min_body_bytes = 64;
    oc.body_spread = 2048;
    tas::ProxyServerConfig pc;
    pc.cache_bytes = 256 * 1024;
    pc.splice_min_body = 1024;
    pc.pool.max_conns = 64;
    pc.pool.origin_ip = exp_->host(1).ip();
    pc.pool.origin_port = oc.port;
    tas::ProxyClientConfig cc;
    cc.proxy_ip = exp_->host(0).ip();
    cc.proxy_port = pc.listen_port;
    cc.concurrency = kConcurrency;
    cc.total_connections = kConnections;
    cc.requests_per_connection = kRequestsPerConnection;
    cc.half_close = true;
    cc.pipeline_depth = 2;
    cc.num_objects = 4096;
    cc.zipf_skew = 0.9;
    cc.min_body_bytes = oc.min_body_bytes;
    cc.body_spread = oc.body_spread;
    cc.connect_spread = Ms(10);
    cc.rng_seed = MixSeed(seed_, 3);
    proxy_ = std::make_unique<tas::ProxyServer>(sim(), stack(0), pc);
    origin_ = std::make_unique<tas::OriginServer>(sim(), stack(1), oc);
    clients_ = std::make_unique<tas::ProxyClientGen>(sim(), stack(2), cc);
    proxy_->RegisterMetrics(bench_metrics_);
    origin_->Start();
    proxy_->Start();
    clients_->Start();
  }

  void RunUntilCompleted(uint64_t target) {
    while (sim()->Now() < kDeadline && clients_->completed() < target) {
      sim()->RunUntil(sim()->Now() + kStep);
    }
  }

  void Warmup() override { RunUntilCompleted(kWarmConnections * kRequestsPerConnection); }

  void BeginMeasure() override {
    clients_->BeginMeasurement();
    completed_before_ = clients_->completed();
  }

  bool MeasureSlice() override {
    const TimeNs slice_end = sim()->Now() + kSlice;
    while (sim()->Now() < slice_end && sim()->Now() < kDeadline &&
           clients_->completed() < kTarget) {
      sim()->RunUntil(sim()->Now() + kStep);
    }
    return sim()->Now() >= kDeadline || clients_->completed() >= kTarget;
  }

  uint64_t OpsCompleted() const override { return clients_->completed(); }

  void Finish(RoundResult* out) override {
    const uint64_t completed = clients_->completed();
    const uint64_t violations = clients_->duplicates() + clients_->mismatches() +
                                clients_->bad_bodies() + clients_->trace_mismatches();
    const uint64_t failed_connects = connect_failures();
    out->ops = completed - completed_before_;
    out->attempted = kTarget - completed_before_;
    out->failed = (kTarget - completed) + violations + failed_connects;
    if (completed != kTarget || clients_->issued() != kTarget) {
      out->failures.push_back("requests completed " + std::to_string(completed) + ", issued " +
                              std::to_string(clients_->issued()) + ", target " +
                              std::to_string(kTarget));
    }
    if (violations != 0) {
      out->failures.push_back("exactly-once violated: " + std::to_string(violations) +
                              " duplicate, mismatched, bad-body or trace-id responses");
    }
    if (failed_connects != 0) {
      out->failures.push_back(std::to_string(failed_connects) + " failed connects");
    }
    const tas::MetricRegistry& registry = exp_->host(0).tas()->tracer().metrics();
    for (const char* invariant : {"latency.partition_mismatches", "causal.critical_path_mismatches"}) {
      double value = 0;
      if (!registry.ReadValue(invariant, &value)) {
        out->failures.push_back(std::string(invariant) + " is not registered");
      } else if (value != 0) {
        out->failures.push_back(std::string(invariant) + " = " + std::to_string(value));
      }
    }
    AddSamples(clients_->latency(), 1e-3, &out->samples["latency"]);  // Recorded in nanoseconds.
  }

  void AddWorkloadLayers(RoundResult* out) override {
    auto& l = out->layers;
    const double ops = static_cast<double>(out->ops);
    const double hits = probe_.Sum("proxy.cache.hits");
    l["proxy.hit_rate"] = Per(hits, hits + probe_.Sum("proxy.cache.misses"));
    l["proxy.coalesced_frac"] =
        Per(probe_.Sum("proxy.coalesced_requests"), probe_.Sum("proxy.requests"));
    double conns_hw = 0;
    bench_metrics_.ReadValue("proxy.pool.conns_hw", &conns_hw);
    l["proxy.pool_conns_hw"] = conns_hw;
    l["proxy.spliced_bytes_per_op"] = Per(probe_.Sum("proxy.spliced_bytes"), ops);

    // Count-weighted mean of each critical-path edge over the request
    // classes whose paths touched it (whole run).
    const tas::CriticalPathReport report = exp_->host(0).tas()->tracer().causal().Report();
    for (int e = 0; e < tas::kNumCausalEdges; ++e) {
      const char* edge = tas::CausalEdgeName(static_cast<tas::CausalEdge>(e));
      double sum_ns = 0;
      double count = 0;
      for (const tas::CriticalPathClassSummary& cls : report.classes) {
        if (const tas::CriticalPathEdgeSummary* row = cls.Find(edge)) {
          sum_ns += row->mean_ns * static_cast<double>(row->count);
          count += static_cast<double>(row->count);
        }
      }
      l[std::string("cp.") + edge + ".mean_us"] = Per(sum_ns, count) / 1e3;
    }
  }

  std::unique_ptr<tas::ProxyServer> proxy_;
  std::unique_ptr<tas::OriginServer> origin_;
  std::unique_ptr<tas::ProxyClientGen> clients_;
  uint64_t completed_before_ = 0;
};

// --- fattree_tas ------------------------------------------------------------
// The Fig 12 rig: a k=4 FatTree with 1:4 oversubscription (32 hosts, 20
// switches, ECN at 65 packets); every host runs TAS with rate-based DCTCP
// (tau = 100 us) and the cost-free cost model; open-loop Poisson flow
// arrivals with bounded-Pareto sizes at ~30% core load, a new connection
// per flow.
class FatTreeRig : public Rig {
 public:
  using Rig::Rig;

 private:
  static constexpr uint16_t kPort = 9200;
  static constexpr TimeNs kWarmup = Ms(20);
  static constexpr TimeNs kMeasure = Ms(200);
  // A flow still open this long after its Connect never completes.
  static constexpr TimeNs kCompletionLimit = Ms(50);

  void Build(bool traced) override {
    tas::FatTreeConfig topo;
    topo.k = 4;
    topo.hosts_per_edge = 2 * topo.k;  // 1:4 oversubscription (k/2 uplinks).
    topo.host_link.gbps = 10.0;
    topo.host_link.propagation_delay = Us(1);
    topo.host_link.ecn_threshold_pkts = 65;
    topo.fabric_link = topo.host_link;
    topo.host_link.rng_seed = MixSeed(seed_, 1);
    topo.fabric_link.rng_seed = MixSeed(seed_, 2);

    tas::HostSpec spec;
    spec.stack = tas::StackKind::kTas;
    spec.app_cores = 2;
    spec.tas_overridden = true;
    spec.tas.max_fastpath_cores = 2;
    spec.tas.costs = &tas::MinimalCostModel();
    spec.tas.control_interval = Us(100);
    spec.tas.dctcp.initial_bps = 1e9;
    spec.tas.rx_buffer_bytes = 128 * 1024;
    spec.tas.tx_buffer_bytes = 128 * 1024;
    spec.tas.trace.latency_stages = traced;

    // Forwards whatever trailing arguments Custom passes on to MakeFatTree,
    // so the call does not depend on their types.
    exp_ = tas::Experiment::Custom(
        [&topo](tas::Simulator* s, auto&&... rest) {
          return tas::MakeFatTree(s, topo, std::forward<decltype(rest)>(rest)...);
        },
        {spec});
    WrapStacks();

    std::vector<std::pair<tas::IpAddr, uint16_t>> destinations;
    for (size_t i = 0; i < exp_->num_hosts(); ++i) {
      destinations.emplace_back(exp_->host(i).ip(), kPort);
      cycle_hosts_.push_back(i);
    }
    const uint64_t seed_base = MixSeed(seed_, 3);
    for (size_t i = 0; i < exp_->num_hosts(); ++i) {
      tas::FlowGenConfig gen;
      gen.destinations = destinations;
      gen.rng_seed = seed_base + i;
      gen.pareto_min_bytes = 2 * 1448;
      gen.pareto_max_bytes = 1e6;
      gen.pareto_alpha = 1.05;
      const tas::BoundedPareto sizes(gen.pareto_min_bytes, gen.pareto_max_bytes, gen.pareto_alpha);
      // Hosts are 4:1 oversubscribed, so 0.3/4 of each host link fills the
      // core to ~30%.
      const double host_load = 0.3 / 4;
      gen.mean_interarrival = static_cast<TimeNs>(sizes.Mean() * 8 / (10e9 * host_load) * 1e9);
      sources_.push_back(std::make_unique<tas::FlowSource>(sim(), stack(i), gen));
      sources_.back()->Start();
      sources_.back()->AlsoSink(kPort);
    }
  }

  void Warmup() override { sim()->RunUntil(kWarmup); }

  uint64_t Started() const {
    uint64_t n = 0;
    for (const auto& s : sources_) {
      n += s->flows_started();
    }
    return n;
  }

  void BeginMeasure() override {
    for (auto& s : sources_) {
      s->BeginMeasurement();
    }
    started_before_ = Started();
  }

  bool MeasureSlice() override {
    sim()->RunUntil(std::min(sim()->Now() + kSlice, kWarmup + kMeasure));
    return sim()->Now() >= kWarmup + kMeasure;
  }

  uint64_t OpsCompleted() const override {
    uint64_t n = 0;
    for (const auto& s : sources_) {
      n += s->fct_ms_short().count() + s->fct_ms_long().count();
    }
    return n;
  }

  void Finish(RoundResult* out) override {
    const TimeNs cutoff = sim()->Now() - kCompletionLimit;
    uint64_t incomplete = 0;
    for (const auto& s : stacks_) {
      for (const auto& [conn, connected_at] : s->open_active()) {
        (void)conn;
        incomplete += connected_at <= cutoff ? 1 : 0;
      }
    }
    const uint64_t failed_connects = connect_failures();
    out->ops = OpsCompleted();
    for (const auto& s : sources_) {
      // Recorded in milliseconds.
      AddSamples(s->fct_ms_short(), 1e3, &out->samples["short_fct"]);
      AddSamples(s->fct_ms_long(), 1e3, &out->samples["long_fct"]);
    }
    out->attempted = Started() - started_before_;
    out->failed = failed_connects + incomplete;
    if (failed_connects != 0) {
      out->failures.push_back(std::to_string(failed_connects) + " failed connects");
    }
    if (incomplete != 0) {
      out->failures.push_back(std::to_string(incomplete) + " flows open longer than " +
                              std::to_string(kCompletionLimit / Ms(1)) + " ms");
    }
  }

  std::vector<std::unique_ptr<tas::FlowSource>> sources_;
  uint64_t started_before_ = 0;
};

struct PercentileSpec {
  const char* metric;
  const char* samples;  // Key into RoundResult::samples.
  double p;
  bool reported;  // False: printed with its sample count, but not a metric.
};

struct Workload {
  const char* name;
  std::vector<PercentileSpec> percentiles;
  std::unique_ptr<Rig> (*make)(uint64_t seed);
};

template <typename T>
std::unique_ptr<Rig> Make(uint64_t seed) {
  return std::make_unique<T>(seed);
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads{
      {"echo_pipelined",
       {{"sim_p50_us", "latency", 50, true},
        {"sim_p99_us", "latency", 99, true},
        {"sim_tail_us", "latency", 99.9, true}},
       &Make<EchoRig>},
      {"proxy_churn",
       {{"sim_p50_us", "latency", 50, true},
        {"sim_p99_us", "latency", 99, true},
        {"sim_tail_us", "latency", 99.9, true}},
       &Make<ProxyRig>},
      // Short-flow FCT for the median and p99; long-flow FCT for the tail.
      // The long-flow p99 (the open Fig 12 deviation) rests on ~25 samples
      // and moves by tens of percent between seeds, so it is printed but
      // not gated; the long-flow p90 is the gated tail.
      {"fattree_tas",
       {{"sim_p50_us", "short_fct", 50, true},
        {"sim_p99_us", "short_fct", 99, true},
        {"sim_tail_us", "long_fct", 90, true},
        {"long_fct_p99_us", "long_fct", 99, false}},
       &Make<FatTreeRig>},
  };
  return kWorkloads;
}

}  // namespace

std::string RoundResult::Fingerprint() const {
  std::ostringstream os;
  os.precision(17);
  os << ops << '|' << attempted << '|' << failed << '|' << events << '|' << cycles << '|'
     << sim_s;
  for (const auto& [name, value] : sim) {
    os << '|' << name << '=' << value;
  }
  for (const PercentileNote& p : percentiles) {
    os << '|' << p.metric << '=' << p.value << '/' << p.samples;
  }
  return os.str();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Workload& w : Workloads()) {
      names.push_back(w.name);
    }
    return names;
  }();
  return kNames;
}

bool RunRound(const std::string& workload, uint64_t seed, RoundMode mode, RoundResult* out) {
  const auto& workloads = Workloads();
  const auto w = std::find_if(workloads.begin(), workloads.end(),
                              [&workload](const Workload& x) { return workload == x.name; });
  if (w == workloads.end()) {
    return false;
  }
  w->make(seed)->Run(mode, out);
  if (mode == RoundMode::kSetupOnly) {
    return true;
  }
  const double ops = static_cast<double>(out->ops);
  out->sim["cycles_per_op"] = Per(static_cast<double>(out->cycles), ops);
  out->sim["sim_ops_per_s"] = Per(ops, out->sim_s);
  for (auto& [name, values] : out->samples) {
    std::sort(values.begin(), values.end());
  }
  for (const PercentileSpec& spec : w->percentiles) {
    const std::vector<double>& sorted = out->samples[spec.samples];
    PercentileNote note;
    note.metric = spec.metric;
    note.p = spec.p;
    note.value = Percentile(sorted, spec.p);
    note.samples = sorted.size();
    note.beyond = static_cast<double>(sorted.size()) * (100 - spec.p) / 100;
    note.reported = spec.reported;
    if (spec.reported) {
      out->sim[spec.metric] = note.value;
    }
    out->percentiles.push_back(note);
  }
  return true;
}

}  // namespace perfbench
