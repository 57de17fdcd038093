#include "src/harness/experiment.h"

#include <cstdlib>

#include "src/tas/watchdog.h"

namespace tas {

const char* StackKindName(StackKind kind) {
  switch (kind) {
    case StackKind::kTas:
      return "TAS";
    case StackKind::kTasLowLevel:
      return "TAS LL";
    case StackKind::kLinux:
      return "Linux";
    case StackKind::kIx:
      return "IX";
    case StackKind::kMtcp:
      return "mTCP";
  }
  return "?";
}

SimHost::SimHost(Simulator* sim, HostPort* port, const HostSpec& spec)
    : spec_(spec), ip_(port->ip) {
  for (int i = 0; i < spec.app_cores; ++i) {
    app_cores_.push_back(std::make_unique<Core>(sim, 2000 + i, kCoreGhz));
  }

  switch (spec.stack) {
    case StackKind::kTas:
    case StackKind::kTasLowLevel: {
      TasConfig config = spec.tas_overridden ? spec.tas : TasConfig{};
      if (!spec.tas_overridden) {
        config.max_fastpath_cores = spec.stack_cores;
      }
      if (TraceOutPrefix() != nullptr) {
        // The env knob turns on everything; the per-host bundles are dumped
        // by Experiment::MaybeWriteTraces on teardown.
        config.trace.flow_events = true;
        config.trace.cpu_spans = true;
        config.trace.sample_flows = true;
        config.trace.latency_stages = true;
        config.trace.causal = true;
        if (config.trace.sample_period == 0) {
          config.trace.sample_period = Us(100);
        }
      }
      if (const char* wd = WatchdogOutPrefix()) {
        config.watchdog.enabled = true;
        if (std::string(wd) != "-") {
          config.watchdog.bundle_prefix = wd;
        }
      }
      // libTAS is priced by this model whatever config.costs is, MinimalCostModel included.
      const StackCostModel* api = spec.stack == StackKind::kTas
                                      ? &TasSocketsCostModel()
                                      : &TasLowLevelCostModel();
      if (spec.stack == StackKind::kTasLowLevel && !spec.tas_overridden) {
        config.costs = &TasLowLevelCostModel();
      }
      tas_ = std::make_unique<TasService>(sim, port, config);
      stack_ = std::make_unique<TasStack>(tas_.get(), AppCorePtrs(), api);
      break;
    }
    case StackKind::kLinux:
    case StackKind::kIx:
    case StackKind::kMtcp: {
      EngineStackConfig config;
      if (spec.engine_overridden) {
        config = spec.engine;
      } else if (spec.stack == StackKind::kLinux) {
        config = LinuxStackConfig();
      } else if (spec.stack == StackKind::kIx) {
        config = IxStackConfig();
      } else {
        config = MtcpStackConfig(spec.stack_cores);
      }
      auto engine = std::make_unique<EngineStack>(sim, port, AppCorePtrs(), config);
      engine_ = engine.get();
      stack_ = std::move(engine);
      break;
    }
  }
}

std::vector<Core*> SimHost::AppCorePtrs() {
  std::vector<Core*> out;
  out.reserve(app_cores_.size());
  for (auto& core : app_cores_) {
    out.push_back(core.get());
  }
  return out;
}

uint64_t SimHost::TotalCycles(CpuModule module) const {
  uint64_t total = 0;
  for (const auto& core : app_cores_) {
    total += core->cycles(module);
  }
  if (tas_ != nullptr) {
    for (int i = 0; i < tas_->max_cores(); ++i) {
      total += const_cast<TasService*>(tas_.get())->fastpath_cpu(i)->cycles(module);
    }
    total += const_cast<TasService*>(tas_.get())->slowpath_cpu()->cycles(module);
  }
  if (engine_ != nullptr) {
    auto* engine = const_cast<EngineStack*>(engine_);
    // Dedicated stack cores only; shared cores are already counted above.
    if (engine->stack_core(0) != app_cores_.front().get()) {
      for (size_t i = 0; i < engine->num_stack_cores(); ++i) {
        total += engine->stack_core(i)->cycles(module);
      }
    }
  }
  return total;
}

uint64_t SimHost::TotalCycles() const {
  uint64_t total = 0;
  for (int m = 0; m < kNumCpuModules; ++m) {
    total += TotalCycles(static_cast<CpuModule>(m));
  }
  return total;
}

void Experiment::AddHosts(const std::vector<HostSpec>& specs) {
  TAS_CHECK(!specs.empty());
  for (size_t i = 0; i < net_->num_hosts(); ++i) {
    hosts_.push_back(
        std::make_unique<SimHost>(&sim_, &net_->host(i), specs[i % specs.size()]));
    // Watchdog sources carry the harness host index ("h0", "h1", ...) so
    // trigger records are topology-stable across IP assignment changes.
    TasService* tas = hosts_.back()->tas();
    if (tas != nullptr && tas->watchdog() != nullptr) {
      tas->watchdog()->set_source("h" + std::to_string(i));
    }
  }
  RegisterSwitchMetrics();
}

std::unique_ptr<Experiment> Experiment::Star(const std::vector<HostSpec>& specs,
                                             const std::vector<LinkConfig>& links) {
  auto exp = std::make_unique<Experiment>();
  std::vector<LinkConfig> host_links;
  for (size_t i = 0; i < specs.size(); ++i) {
    host_links.push_back(links.size() == 1 ? links[0] : links[i]);
  }
  exp->net_ = MakeStar(&exp->sim_, host_links);
  exp->AddHosts(specs);
  return exp;
}

std::unique_ptr<Experiment> Experiment::PointToPoint(const HostSpec& a, const HostSpec& b,
                                                     const LinkConfig& link) {
  auto exp = std::make_unique<Experiment>();
  exp->net_ = MakePointToPoint(&exp->sim_, link);
  exp->AddHosts({a, b});
  return exp;
}

std::unique_ptr<Experiment> Experiment::Custom(
    const std::function<std::unique_ptr<Network>(Simulator*)>& build,
    const std::vector<HostSpec>& specs) {
  auto exp = std::make_unique<Experiment>();
  exp->net_ = build(&exp->sim_);
  exp->AddHosts(specs);
  return exp;
}

void Experiment::RegisterSwitchMetrics() {
  for (auto& host : hosts_) {
    TasService* tas = host->tas();
    if (tas == nullptr) {
      continue;
    }
    for (size_t s = 0; s < net_->num_switches(); ++s) {
      Switch* sw = net_->switch_at(s);
      sw->RegisterMetrics(&tas->tracer().metrics(), "switch." + sw->name());
    }
    tas->tracer().metrics().ShrinkToFit();
    return;
  }
}

Experiment::Experiment() = default;

Experiment::~Experiment() { MaybeWriteTraces(); }

size_t Experiment::WriteTraces(const std::string& prefix) {
  size_t written = 0;
  for (size_t i = 0; i < hosts_.size(); ++i) {
    TasService* tas = hosts_[i]->tas();
    if (tas == nullptr) {
      continue;
    }
    const std::string host_prefix = prefix + ".h" + std::to_string(i);
    if (tas->tracer().WriteAll(host_prefix)) {
      TAS_LOG(INFO) << "wrote trace bundle " << host_prefix << ".{metrics,flow_events,"
                    << "timeseries}.jsonl + .perfetto.json";
      ++written;
    } else {
      TAS_LOG(WARN) << "failed to write trace bundle under " << host_prefix;
    }
  }
  return written;
}

void Experiment::MaybeWriteTraces() {
  const char* prefix = TraceOutPrefix();
  if (prefix != nullptr) {
    WriteTraces(prefix);
  }
}

bool FullScale() {
  const char* env = std::getenv("TAS_SCALE");
  return env != nullptr && std::string(env) == "full";
}

size_t ScalePick(size_t reduced, size_t full) { return FullScale() ? full : reduced; }

const char* TraceOutPrefix() {
  const char* env = std::getenv("TAS_TRACE_OUT");
  return (env != nullptr && *env != '\0') ? env : nullptr;
}

const char* WatchdogOutPrefix() {
  const char* env = std::getenv("TAS_WATCHDOG");
  return (env != nullptr && *env != '\0') ? env : nullptr;
}

}  // namespace tas
