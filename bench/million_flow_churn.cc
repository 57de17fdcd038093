// million_flow_churn: million-flow scale-out gate for the group-probed flow
// table and RSS flow-group steering (ROADMAP million-flow item; paper §3.1
// capacity claim + §3.4 scaling controller).
//
// Phase A drives the FlowTable directly: 1.2M live 4-tuples, zipf-skewed
// lookups, and erase+reinsert churn, plus a small-table exercise that forces
// tombstone-drift rebuilds. Phase B drives a full TasService: establish
// ScalePick(128K, 1M) flows, inject zipf-skewed pure-ACK traffic into the
// NIC over four fast-path cores, churn connections each round (stale
// FlowIds must reject), and run the whole thing TWICE to assert same-seed
// byte-identical results via a state fingerprint.
//
// Self-gating: exits nonzero when an invariant fails (probe p99 over 8
// groups, size drift, lost keys, stale ids accepted, fingerprint
// divergence, latency partition mismatches). CI runs the reduced scale and
// gates the BENCH_JSON record's det against the checked-in baseline through
// bench_gate; see EXPERIMENTS.md.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_record.h"
#include "src/tas/fast_path.h"
#include "src/tas/steering.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/latency.h"
#include "src/util/zipf.h"

namespace tas {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Deterministic 4-tuple for table-key index i (unique for i < 15M).
FlowKey TableKey(uint64_t i) {
  FlowKey key;
  key.local_port = static_cast<uint16_t>(1024 + (i % 60000));
  const uint64_t g = i / 60000;
  key.peer_ip = MakeIp(10, static_cast<uint8_t>(g >> 8), static_cast<uint8_t>(g), 2);
  key.peer_port = 40000;
  return key;
}

FlowId IdOf(uint64_t i) {
  return MakeFlowId(static_cast<uint32_t>(i) & kFlowSlotMask,
                    static_cast<uint32_t>(i >> kFlowSlotBits));
}

void Fail(std::vector<std::string>& failures, const std::string& msg) {
  if (failures.size() < 16) {
    failures.push_back(msg);
  }
}

// --- Phase A: direct table churn at 1.2M live keys --------------------------

struct TableResult {
  size_t flows = 0;
  size_t zipf_lookups = 0;
  size_t churn_ops = 0;
  uint64_t lookup_hits = 0;
  size_t capacity = 0;
  double load_factor = 0;
  double avg_probe = 0;
  uint64_t probe_p50 = 0;
  uint64_t probe_p99 = 0;
  FlowTableStats stats;
  uint64_t drift_rebuilds_small = 0;
  double wall_sec = 0;
};

TableResult RunTableChurn(std::vector<std::string>& failures) {
  // The >= 1M-concurrent-flows gate runs at BOTH scales: the table-level
  // phase is cheap (tens of MB), so CI exercises the real capacity target.
  const size_t kFlows = 1'200'000;
  const size_t kLookups = ScalePick(1'000'000, 4'000'000);
  const size_t kChurn = ScalePick(400'000, 1'000'000);

  TableResult r;
  r.flows = kFlows;
  const auto start = Clock::now();

  // Phase A grows the table from 1,024 slots: its rehash total counts the
  // doublings from there to 1.2M entries.
  FlowTable table(1024);
  // keys[rank] = current key index occupying that rank slot (churn replaces).
  std::vector<uint64_t> keys(kFlows);
  for (uint64_t i = 0; i < kFlows; ++i) {
    keys[i] = i;
    table.Insert(TableKey(i), IdOf(i));
  }
  uint64_t next_key = kFlows;
  if (table.size() != kFlows) {
    Fail(failures, "phaseA: size after bulk insert != flow count");
  }

  // Zipf-skewed lookups (paper §5.3 uses s=0.9 for key popularity).
  ZipfGenerator zipf(kFlows, 0.9);
  Rng rng(0x5EED5);
  for (size_t l = 0; l < kLookups; ++l) {
    const size_t rank = zipf.Sample(rng);
    if (table.Find(TableKey(keys[rank])) == IdOf(keys[rank])) {
      ++r.lookup_hits;
    } else {
      Fail(failures, "phaseA: zipf lookup missed a live key");
    }
    if ((l & 0xF) == 0 && table.Find(TableKey(next_key + rank)) != kInvalidFlow) {
      Fail(failures, "phaseA: absent key reported present");
    }
  }
  r.zipf_lookups = kLookups;

  // Erase+reinsert churn with interleaved zipf reads.
  for (size_t op = 0; op < kChurn; ++op) {
    const size_t victim = static_cast<size_t>(rng.Next() % kFlows);
    if (!table.Erase(TableKey(keys[victim]))) {
      Fail(failures, "phaseA: churn erase lost a live key");
    }
    keys[victim] = next_key++;
    table.Insert(TableKey(keys[victim]), IdOf(keys[victim]));
    if ((op & 0x3) == 0) {
      const size_t rank = zipf.Sample(rng);
      if (table.Find(TableKey(keys[rank])) != IdOf(keys[rank])) {
        Fail(failures, "phaseA: lookup during churn returned wrong id");
      }
    }
  }
  r.churn_ops = kChurn;
  if (table.size() != kFlows) {
    Fail(failures, "phaseA: size drifted across churn");
  }

  r.capacity = table.capacity();
  r.load_factor = table.LoadFactor();
  r.avg_probe = table.AvgProbeLength();
  r.probe_p50 = table.probe_hist().ApproxPercentile(50);
  r.probe_p99 = table.probe_hist().ApproxPercentile(99);
  r.stats = table.stats();
  r.wall_sec = Seconds(start, Clock::now());

  if (r.probe_p99 > 8) {
    Fail(failures, "phaseA: probe p99 over 8 groups at steady load");
  }
  return r;
}

// Tombstone-drift exercise on a small table: hold live count far below the
// drift bound while erase+insert churn accretes tombstones until occupancy
// trips the 7/8 check — the rebuild must keep capacity and keep every key.
uint64_t RunDriftExercise(std::vector<std::string>& failures) {
  FlowTable table(4096);
  const uint64_t kBase = 10'000'000;  // Distinct key range from phase A.
  uint64_t next = kBase;
  std::vector<uint64_t> live;
  // Fill to one below the growth trigger (occupancy 3583 of 4096*7/8).
  for (size_t i = 0; i < 3583; ++i) {
    live.push_back(next);
    table.Insert(TableKey(next), IdOf(next));
    ++next;
  }
  // Erase most: occupancy stays 3583 but is now mostly tombstones.
  size_t head = 0;
  while (live.size() - head > 783) {
    table.Erase(TableKey(live[head++]));
  }
  const size_t cap_before = table.capacity();
  // Churn at constant live count until an insert lands on an empty slot and
  // the next occupancy check trips as DRIFT (live 784 << 7/16 of capacity).
  size_t iters = 0;
  while (table.stats().drift_rebuilds == 0 && iters < 4000) {
    live.push_back(next);
    table.Insert(TableKey(next), IdOf(next));
    ++next;
    table.Erase(TableKey(live[head++]));
    ++iters;
  }
  if (table.stats().drift_rebuilds == 0) {
    Fail(failures, "drift: tombstone churn never triggered a drift rebuild");
  }
  if (table.capacity() != cap_before) {
    Fail(failures, "drift: rebuild changed capacity (expected same-size)");
  }
  for (size_t i = head; i < live.size(); ++i) {
    if (table.Find(TableKey(live[i])) != IdOf(live[i])) {
      Fail(failures, "drift: live key lost across drift rebuild");
    }
  }
  return table.stats().drift_rebuilds;
}

// --- Phase B: service-level churn -------------------------------------------

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDull;
  return h ^ (h >> 33);
}

struct SvcResult {
  uint64_t fingerprint = 0;
  size_t flows = 0;
  uint64_t packets = 0;
  uint64_t events = 0;
  double events_per_packet = 0;
  uint64_t fastpath_rx = 0;
  uint64_t exceptions = 0;
  uint64_t group_moves = 0;
  uint64_t migrations = 0;
  uint64_t deferred_items = 0;
  uint64_t partition_mismatches = 0;
  uint64_t churned = 0;
  uint64_t stale_rejected = 0;
  uint64_t watchdog_triggers = 0;  // Armed runs only.
  uint64_t recorder_records = 0;
  FlowTableReport table;
  double wall_sec = 0;
};

FlowKey SvcKey(uint64_t i) {
  FlowKey key;
  key.local_port = static_cast<uint16_t>(2000 + (i % 50000));
  const uint64_t g = i / 50000;
  key.peer_ip = MakeIp(172, static_cast<uint8_t>(16 + (g >> 8)), static_cast<uint8_t>(g), 9);
  key.peer_port = 50000;
  return key;
}

// `armed` runs the identical workload with the flight recorder + SLO
// watchdog on (default conservative SLOs, in-memory): the fingerprint
// compare against the unarmed run doubles as a timing-passivity gate at
// million-flow scale, and the conservative SLO set must stay silent.
SvcResult RunServiceChurn(std::vector<std::string>& failures, bool armed = false) {
  const size_t kFlows = ScalePick(131'072, 1'000'000);
  const size_t kRounds = ScalePick(64, 128);
  const size_t kPktsPerRound = ScalePick(256, 512);
  const size_t kChurnPerRound = 32;

  SvcResult r;
  r.flows = kFlows;
  const auto start = Clock::now();

  // TAS server with 4 fast-path cores and latency stage stamping (the
  // partition invariant must hold). Tiny payload buffers: the workload is
  // pure-ACK, so the 1M working set is flow state, not payload memory.
  HostSpec server = ServerSpec(StackKind::kTas, 1, 4, 64);
  server.tas.trace.latency_stages = true;
  server.tas.watchdog.enabled = armed;
  HostSpec peer;  // Linux-stack placeholder; injected traffic never crosses.
  auto exp = Experiment::PointToPoint(server, peer, ServerLink());
  TasService* tas = exp->host(0).tas();
  SimNic* nic = tas->nic();

  std::vector<FlowId> ids(kFlows);
  uint64_t next_key = 0;
  for (size_t i = 0; i < kFlows; ++i) {
    ids[i] = tas->AllocateFlow(SvcKey(next_key++));
    tas->flow_by_id(ids[i])->cstate = ConnState::kEstablished;
  }

  // Zipf-skewed pure ACKs: seq/ack chosen so the fast path takes the
  // established-flow no-op path (no payload, nothing newly acked) — the run
  // isolates lookup + steering + batching cost at million-flow occupancy.
  ZipfGenerator zipf(kFlows, 1.0);
  Rng traffic_rng(0xACED1);
  uint64_t injected = 0;
  size_t churn_cursor = 0;
  const uint64_t events_before = exp->sim().events_executed();
  // Absolute round deadlines: Now() after RunUntil is the last *executed*
  // event's time, so Now()-relative targets would let passive bookkeeping
  // events (e.g. the armed watchdog's checks) shift the injection schedule.
  TimeNs round_deadline = exp->sim().Now();
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t p = 0; p < kPktsPerRound; ++p) {
      const Flow* f = tas->flow_by_id(ids[zipf.Sample(traffic_rng)]);
      nic->Receive(MakeTcpPacket(exp->packet_pool(), f->fs.peer_ip, f->fs.peer_port,
                                 tas->local_ip(), f->fs.local_port, f->fs.ack, f->fs.tx_tail,
                                 TcpFlags::kAck));
      ++injected;
    }
    round_deadline += Us(200);
    exp->sim().RunUntil(round_deadline);
    // Connection churn: retire flows round-robin; their ids must go stale
    // (generation bump) before the slot's replacement flow reuses it.
    for (size_t c = 0; c < kChurnPerRound; ++c) {
      const size_t victim = churn_cursor++ % kFlows;
      const FlowId old_id = ids[victim];
      tas->FreeFlow(old_id);
      if (tas->flow_by_id(old_id) == nullptr) {
        ++r.stale_rejected;
      }
      ids[victim] = tas->AllocateFlow(SvcKey(next_key++));
      tas->flow_by_id(ids[victim])->cstate = ConnState::kEstablished;
      ++r.churned;
    }
  }
  exp->sim().RunUntil(round_deadline + Ms(2));  // Drain everything.

  r.packets = injected;
  r.events = exp->sim().events_executed() - events_before;
  r.events_per_packet =
      injected > 0 ? static_cast<double>(r.events) / static_cast<double>(injected) : 0;
  const TasStats& stats = tas->stats();
  r.fastpath_rx = stats.fastpath_rx_packets;
  r.exceptions = stats.exceptions;
  FlowGroupSteering* steer = tas->steering();
  r.group_moves = steer->group_moves();
  r.migrations = steer->migrations();
  r.deferred_items = steer->deferred_items();
  r.partition_mismatches = tas->tracer().latency().partition_mismatches();
  r.table = CaptureFlowTableReport(tas);
  if (armed) {
    FlightRecorder* recorder = tas->context().recorder();
    r.watchdog_triggers = recorder->triggers().size();
    for (int s = 0; s < kNumRecorderStreams; ++s) {
      r.recorder_records += recorder->recorded(static_cast<RecorderStream>(s));
    }
  }

  // State fingerprint over everything steering could perturb: per-core
  // retirement counters, steering/stat counters, and a sample of per-flow
  // TCP state. Two same-seed runs must match bit-exactly —
  // including one armed run vs one unarmed run, which is why the fingerprint
  // covers workload state only: the armed watchdog adds periodic check
  // *events* (and Now() ends on the last executed event) without changing any
  // packet, flow, or counter below.
  uint64_t h = 0xCBF29CE484222325ull;
  for (int i = 0; i < tas->max_cores(); ++i) {
    h = Mix(h, tas->fastpath(i)->items_processed());
  }
  h = Mix(h, r.group_moves);
  h = Mix(h, r.migrations);
  h = Mix(h, r.deferred_items);
  h = Mix(h, stats.fastpath_rx_packets);
  h = Mix(h, stats.cross_core_packets);
  h = Mix(h, stats.exceptions);
  h = Mix(h, r.table.probe_p99);
  h = Mix(h, tas->flow_table().stats().lookups);
  const size_t stride = kFlows / 64 == 0 ? 1 : kFlows / 64;
  for (size_t i = 0; i < kFlows; i += stride) {
    const Flow* f = tas->flow_by_id(ids[i]);
    h = Mix(h, f == nullptr ? 0 : (static_cast<uint64_t>(f->fs.ack) << 32) | f->fs.seq);
  }
  r.fingerprint = h;
  r.wall_sec = Seconds(start, Clock::now());

  if (r.stale_rejected != r.churned) {
    Fail(failures, "phaseB: a freed FlowId still resolved (stale id accepted)");
  }
  if (r.partition_mismatches != 0) {
    Fail(failures, "phaseB: latency partition mismatches");
  }
  if (r.exceptions != 0) {
    Fail(failures, "phaseB: established-flow ACKs took the exception path");
  }
  return r;
}

int Run() {
  PrintHeader("million_flow_churn: flow-table + steering at 1M-flow scale",
              "paper §3.1 capacity / §3.4 scaling, ROADMAP million-flow item");
  std::vector<std::string> failures;

  const TableResult t = RunTableChurn(failures);
  const uint64_t drift = RunDriftExercise(failures);
  const SvcResult a = RunServiceChurn(failures);
  // Run B repeats the workload with the watchdog armed: the fingerprint
  // compare is both the same-seed determinism gate and the recorder's
  // timing-passivity gate at scale.
  const SvcResult b = RunServiceChurn(failures, /*armed=*/true);
  const bool deterministic = a.fingerprint == b.fingerprint;
  const double recorder_overhead = a.wall_sec > 0 ? b.wall_sec / a.wall_sec : 0;
  if (!deterministic) {
    Fail(failures, "phaseB: armed same-seed rerun diverged (recorder not passive)");
  }
  if (b.watchdog_triggers != 0) {
    Fail(failures, "phaseB: armed run triggered a default SLO (false positive)");
  }
  if (b.recorder_records == 0) {
    Fail(failures, "phaseB: armed run retained no recorder records");
  }

  TablePrinter table({"Metric", "Value"});
  table.AddRow("A: live flows", t.flows);
  table.AddRow("A: zipf lookups", t.zipf_lookups);
  table.AddRow("A: churn ops", t.churn_ops);
  table.AddRow("A: capacity / load", Fmt(static_cast<double>(t.capacity) / 1e6, 2) + "M / " +
                                         Fmt(t.load_factor, 2));
  table.AddRow("A: probe p50/p99 (groups)",
               std::to_string(t.probe_p50) + " / " + std::to_string(t.probe_p99));
  table.AddRow("A: avg probe", Fmt(t.avg_probe, 3));
  table.AddRow("A: rehashes (grow+drift)", t.stats.rehashes);
  table.AddRow("A: wall sec", Fmt(t.wall_sec, 2));
  table.AddRow("drift rebuilds (small table)", drift);
  table.AddRow("B: flows", a.flows);
  table.AddRow("B: packets injected", a.packets);
  table.AddRow("B: events/packet", Fmt(a.events_per_packet, 2));
  table.AddRow("B: fastpath rx / exceptions",
               std::to_string(a.fastpath_rx) + " / " + std::to_string(a.exceptions));
  table.AddRow("B: group moves / drains",
               std::to_string(a.group_moves) + " / " + std::to_string(a.migrations));
  table.AddRow("B: deferred items", a.deferred_items);
  table.AddRow("B: churned / stale rejected",
               std::to_string(a.churned) + " / " + std::to_string(a.stale_rejected));
  table.AddRow("B: partition mismatches", a.partition_mismatches);
  table.AddRow("B: table probe p99", a.table.probe_p99);
  table.AddRow("B: deterministic rerun", deterministic ? "yes" : "NO");
  table.AddRow("B: wall sec (each run)", Fmt(a.wall_sec, 2) + " / " + Fmt(b.wall_sec, 2));
  table.AddRow("B: recorder overhead (wall)", Fmt(recorder_overhead, 3) + "x (armed rerun)");
  table.AddRow("B: recorder records / triggers",
               std::to_string(b.recorder_records) + " / " +
                   std::to_string(b.watchdog_triggers));
  table.AddRow("peak RSS MiB", Fmt(static_cast<double>(PeakRssKb()) / 1024.0, 1));
  table.Print();

  BenchRecord record("million_flow_churn");
  record.Det("table_flows", t.flows);
  record.Det("zipf_lookups", t.zipf_lookups);
  record.Det("churn_ops", t.churn_ops);
  record.Det("capacity", t.capacity);
  record.Det("load_factor", t.load_factor);
  record.Det("avg_probe", t.avg_probe);
  record.Det("probe_p50", t.probe_p50);
  record.Det("probe_p99", t.probe_p99);
  record.Det("max_probe", t.stats.max_probe);
  record.Det("rehashes", t.stats.rehashes);
  record.Det("drift_rebuilds", t.stats.drift_rebuilds);
  record.Det("tombstones_reused", t.stats.tombstones_reused);
  record.Det("drift_rebuilds_small", drift);
  record.Det("svc_flows", a.flows);
  record.Det("svc_packets", a.packets);
  record.Det("svc_events", a.events);
  record.Det("events_per_packet", a.events_per_packet);
  record.Det("svc_fastpath_rx", a.fastpath_rx);
  record.Det("svc_exceptions", a.exceptions);
  record.Det("group_moves", a.group_moves);
  record.Det("migrations", a.migrations);
  record.Det("deferred_items", a.deferred_items);
  record.Det("partition_mismatches", a.partition_mismatches);
  record.Det("svc_churned", a.churned);
  record.Det("svc_stale_rejected", a.stale_rejected);
  record.Det("svc_probe_p99", a.table.probe_p99);
  record.Det("svc_load_factor", a.table.load_factor);
  record.Det("deterministic", deterministic ? 1 : 0);
  record.Det("fingerprint", a.fingerprint);
  record.Det("watchdog_triggers", b.watchdog_triggers);
  record.Det("recorder_records", b.recorder_records);
  record.Wall("table_wall_sec", t.wall_sec);
  record.Wall("svc_wall_sec", a.wall_sec);
  record.Wall("recorder_overhead_wall", recorder_overhead);
  record.Print();

  if (failures.empty()) {
    std::cout << "MILLION_FLOW_GATES PASS\n";
    return 0;
  }
  for (const std::string& f : failures) {
    std::cout << "GATE FAIL: " << f << "\n";
  }
  std::cout << "MILLION_FLOW_GATES FAIL (" << failures.size() << ")\n";
  return 1;
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { return tas::bench::Run(); }
