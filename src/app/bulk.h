// Bulk transfer applications: N flows pushing data as fast as flow/congestion
// control allows. Used by the Table 4 interoperability matrix, the Fig 7
// packet-loss experiment, and the Fig 13 incast fairness experiment (which
// needs the receiver's per-connection byte counts over 100 ms windows).
#ifndef SRC_APP_BULK_H_
#define SRC_APP_BULK_H_

#include <unordered_map>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace tas {

struct BulkSenderConfig {
  IpAddr server_ip = 0;
  uint16_t server_port = 9000;
  size_t num_flows = 100;
  size_t chunk_bytes = 16 * 1024;  // Per Send() call.
};

class BulkSender : public AppHandler {
 public:
  BulkSender(Simulator* sim, Stack* stack, const BulkSenderConfig& config);

  void Start();
  uint64_t bytes_sent() const { return bytes_sent_; }
  size_t connected() const { return connected_; }

  // AppHandler:
  void OnConnected(ConnId conn, bool success) override;
  void OnSendSpace(ConnId conn, size_t bytes) override;

 private:
  void Pump(ConnId conn);

  Simulator* sim_;
  Stack* stack_;
  BulkSenderConfig config_;
  std::vector<uint8_t> chunk_;
  uint64_t bytes_sent_ = 0;
  size_t connected_ = 0;
};

struct BulkReceiverConfig {
  uint16_t port = 9000;
  // Record per-connection byte counts every interval (0 = disabled). Used by
  // the incast fairness experiment (Fig 13).
  TimeNs sample_interval = 0;
};

class BulkReceiver : public AppHandler {
 public:
  BulkReceiver(Simulator* sim, Stack* stack, const BulkReceiverConfig& config);

  void Start();
  void BeginMeasurement();
  uint64_t bytes_received() const { return bytes_received_; }
  double ThroughputBps() const;
  // All (connection, bytes-in-window) samples collected since measurement
  // began, across connections and windows.
  const std::vector<uint64_t>& window_samples() const { return window_samples_; }

  // AppHandler:
  void OnAccepted(ConnId conn, uint16_t port) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

 private:
  void SampleWindows();

  Simulator* sim_;
  Stack* stack_;
  BulkReceiverConfig config_;
  std::unordered_map<ConnId, uint64_t> window_bytes_;
  std::vector<uint64_t> window_samples_;
  std::vector<uint8_t> scratch_;
  uint64_t bytes_received_ = 0;
  bool measuring_ = false;
  TimeNs measure_start_ = 0;
  uint64_t bytes_at_start_ = 0;
};

}  // namespace tas

#endif  // SRC_APP_BULK_H_
