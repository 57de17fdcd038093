// In-memory key-value store and load generator, modeled after memcached and
// memslap (paper §5.3): fixed-format GET/SET requests over TCP, zipf key
// popularity, 90/10 GET/SET mix, and a deliberately non-scalable contended
// mode (single key behind a lock) for the Table 7 experiment.
//
// Wire format (little-endian):
//   request:  [1B op][3B pad][4B key_id][2B value_len][2B pad][key padding]
//             [value bytes for SET]
//   response: [1B status][1B pad][2B value_len][4B pad][value bytes]
#ifndef SRC_APP_KV_STORE_H_
#define SRC_APP_KV_STORE_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/cpu/core.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"
#include "src/util/stats.h"

namespace tas {

inline constexpr size_t kKvRequestHeader = 12;
inline constexpr size_t kKvResponseHeader = 8;

struct KvServerConfig {
  uint16_t port = 11211;
  size_t num_keys = 100000;
  size_t key_bytes = 32;
  size_t value_bytes = 64;
  uint64_t app_cycles_per_op = 680;  // Hashing + lookup + response build.
  // Non-scalable mode (Table 7): every update serializes on a single lock.
  bool contended = false;
  Core* lock_core = nullptr;     // Required when contended.
  uint64_t lock_hold_cycles = 400;
};

class KvServer : public AppHandler {
 public:
  KvServer(Simulator* sim, Stack* stack, const KvServerConfig& config);

  void Start();
  uint64_t gets() const { return gets_; }
  uint64_t sets() const { return sets_; }

  // AppHandler:
  void OnAccepted(ConnId conn, uint16_t port) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

 private:
  struct ConnBuf {
    std::vector<uint8_t> buf;  // Partially received request bytes.
  };

  void ProcessRequests(ConnId conn, ConnBuf& state);

  Simulator* sim_;
  Stack* stack_;
  KvServerConfig config_;
  std::vector<std::string> values_;
  std::unordered_map<ConnId, ConnBuf> conns_;
  uint64_t gets_ = 0;
  uint64_t sets_ = 0;
};

struct KvClientConfig {
  IpAddr server_ip = 0;
  uint16_t server_port = 11211;
  size_t num_connections = 64;
  size_t num_keys = 100000;
  size_t key_bytes = 32;
  size_t value_bytes = 64;
  // 0 = closed loop at max rate (one request in flight per connection);
  // >0 = open loop at this many total operations/sec (latency experiments).
  double target_ops_per_sec = 0;
  uint64_t rng_seed = 42;
  TimeNs connect_spread = Ms(1);
  // Hold traffic until this absolute sim time (0 = start immediately).
  TimeNs first_request_at = 0;
};

class KvClient : public AppHandler {
 public:
  KvClient(Simulator* sim, Stack* stack, const KvClientConfig& config);
  ~KvClient() override;

  void Start();
  void BeginMeasurement();

  uint64_t completed() const { return completed_; }
  double Throughput() const;
  const LatencyRecorder& latency() const { return latency_; }

  // AppHandler:
  void OnConnected(ConnId conn, bool success) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

 private:
  struct ConnState {
    size_t received = 0;
    size_t expected = 0;     // Response bytes for the in-flight request.
    bool in_flight = false;
    TimeNs sent_at = 0;
  };

  void SendRequest(ConnId conn);
  void OpenLoopTick();
  size_t RequestBytes(bool is_set) const;

  Simulator* sim_;
  Stack* stack_;
  KvClientConfig config_;
  Rng rng_;
  ZipfGenerator zipf_;
  std::unordered_map<ConnId, ConnState> conns_;
  std::vector<ConnId> ready_conns_;  // Idle connections (open-loop mode).
  uint64_t completed_ = 0;
  EventHandle tick_;  // Open-loop arrival timer (cancelled on destruction).
  bool measuring_ = false;
  TimeNs measure_start_ = 0;
  uint64_t completed_at_start_ = 0;
  LatencyRecorder latency_;
};

}  // namespace tas

#endif  // SRC_APP_KV_STORE_H_
