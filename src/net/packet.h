// Packet representation: Ethernet/IPv4/TCP headers, ECN codepoints, TCP
// options (MSS, window scale, timestamps, SACK), and payload bytes.
//
// Inside the simulator packets travel as structured objects for speed; the
// wire encoding (Serialize/Parse, internet checksum) is implemented and
// unit-tested so the header layout is honest, but the hot path does not
// round-trip through bytes (see DESIGN.md §5).
#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace tas {

using IpAddr = uint32_t;
using MacAddr = uint64_t;  // Lower 48 bits significant.

constexpr IpAddr MakeIp(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
  return (static_cast<IpAddr>(a) << 24) | (static_cast<IpAddr>(b) << 16) |
         (static_cast<IpAddr>(c) << 8) | static_cast<IpAddr>(d);
}

std::string IpToString(IpAddr ip);

// RFC 3168 ECN codepoints (2 bits of the IP TOS byte).
enum class Ecn : uint8_t {
  kNotEct = 0,
  kEct1 = 1,
  kEct0 = 2,
  kCe = 3,
};

// TCP flag bits, matching the wire layout.
struct TcpFlags {
  static constexpr uint8_t kFin = 0x01;
  static constexpr uint8_t kSyn = 0x02;
  static constexpr uint8_t kRst = 0x04;
  static constexpr uint8_t kPsh = 0x08;
  static constexpr uint8_t kAck = 0x10;
  static constexpr uint8_t kUrg = 0x20;
  static constexpr uint8_t kEce = 0x40;
  static constexpr uint8_t kCwr = 0x80;
};

struct EthernetHeader {
  MacAddr dst = 0;
  MacAddr src = 0;
  uint16_t ethertype = 0x0800;  // IPv4.
};

struct Ipv4Header {
  uint8_t dscp = 0;
  Ecn ecn = Ecn::kNotEct;
  uint8_t ttl = 64;
  uint8_t protocol = 6;  // TCP.
  IpAddr src = 0;
  IpAddr dst = 0;
  // total_length and checksum are computed during serialization.
};

// One SACK block: [start, end) in sequence space.
struct SackBlock {
  uint32_t start = 0;
  uint32_t end = 0;
};

struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t flags = 0;
  uint16_t window = 0;

  // Options. has_* gates inclusion on the wire.
  bool has_mss = false;
  uint16_t mss = 0;
  bool has_wscale = false;
  uint8_t wscale = 0;
  bool has_timestamps = false;
  uint32_t ts_val = 0;
  uint32_t ts_ecr = 0;
  uint8_t num_sack = 0;
  std::array<SackBlock, 3> sack = {};

  bool syn() const { return (flags & TcpFlags::kSyn) != 0; }
  bool ack_flag() const { return (flags & TcpFlags::kAck) != 0; }
  bool fin() const { return (flags & TcpFlags::kFin) != 0; }
  bool rst() const { return (flags & TcpFlags::kRst) != 0; }
  bool ece() const { return (flags & TcpFlags::kEce) != 0; }
  bool cwr() const { return (flags & TcpFlags::kCwr) != 0; }

  // Bytes the options occupy on the wire (padded to 4-byte multiple).
  size_t OptionBytes() const;
};

struct Packet {
  EthernetHeader eth;
  Ipv4Header ip;
  TcpHeader tcp;
  std::vector<uint8_t> payload;

  // Simulation metadata (not on the wire).
  TimeNs enqueued_at = 0;  // When the sender handed it to the NIC.
  uint32_t ingress_port = 0;
  // Fault injection: wire bits to flip (src/fault corruption impairment).
  // Where real bytes exist (validate_wire_format) the flips are applied and
  // the internet checksum rejects the frame; otherwise the receiving NIC
  // models its hardware checksum check by discarding marked frames.
  uint32_t corrupt_flips = 0;
  // Latency-anatomy record id (src/trace/latency): keys the side ring where
  // this packet's stage stamps accumulate. 0 = untracked (tracing off, or a
  // control packet nobody opened a record for). Pool recycling resets it;
  // clones start untracked so duplicates cannot corrupt the original's
  // record.
  uint64_t lat_id = 0;

  // Total bytes on the wire, including Ethernet framing.
  size_t WireBytes() const;

  // Human-readable one-liner for logs ("10.0.0.1:80 > 10.0.0.2:5000 SYN ...").
  std::string Describe() const;
};

class PacketPool;

// Deleter riding inside PacketPtr: returns pooled packets to their owning
// pool (payload capacity retained), plain-deletes unpooled ones. Default
// state (null pool) means plain delete, so PacketPtr(new Packet) stays legal.
class PacketDeleter {
 public:
  PacketDeleter() = default;
  explicit PacketDeleter(PacketPool* pool) : pool_(pool) {}
  void operator()(Packet* pkt) const noexcept;
  PacketPool* pool() const { return pool_; }

 private:
  PacketPool* pool_ = nullptr;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

// Convenience constructor for a TCP packet with common fields filled in.
// Allocates from `pool` (see src/net/packet_pool.h; devices pass their
// experiment's, Simulator::context().pool()), so the steady-state cost is a
// free-list pop, not a heap allocation. Prefer filling `payload` in place on
// the returned packet (its pooled buffer retains capacity); the by-value
// parameter replaces the pooled buffer.
PacketPtr MakeTcpPacket(PacketPool& pool, IpAddr src_ip, uint16_t src_port, IpAddr dst_ip,
                        uint16_t dst_port, uint32_t seq, uint32_t ack, uint8_t flags,
                        std::vector<uint8_t> payload = {});

// RFC 1071 internet checksum over a byte range.
uint16_t InternetChecksum(const uint8_t* data, size_t len);

// Serializes the full frame (Ethernet + IPv4 + TCP + payload) with valid
// IPv4 and TCP checksums.
std::vector<uint8_t> Serialize(const Packet& pkt);

// Parses a frame produced by Serialize. Returns nullopt on malformed input
// or checksum mismatch.
std::optional<Packet> Parse(const std::vector<uint8_t>& bytes);

// Connection lookup key for per-host flow/connection tables: a host owns one
// local IP, so (local_port, peer_ip, peer_port) identifies a connection.
struct FlowKey {
  uint16_t local_port = 0;
  IpAddr peer_ip = 0;
  uint16_t peer_port = 0;

  bool operator==(const FlowKey&) const = default;
};

struct FlowKeyHash {
  size_t operator()(const FlowKey& key) const {
    uint64_t x = (static_cast<uint64_t>(key.peer_ip) << 32) |
                 (static_cast<uint64_t>(key.local_port) << 16) | key.peer_port;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 29;
    return static_cast<size_t>(x);
  }
};

// Flow hash over the 4-tuple (direction-sensitive), used for ECMP.
uint32_t FlowHash(IpAddr src_ip, uint16_t src_port, IpAddr dst_ip, uint16_t dst_port);

// Symmetric variant: both directions of a connection hash identically.
// The NIC RSS uses this (mTCP depends on symmetric RSS; paper §5.4).
uint32_t SymmetricFlowHash(IpAddr a_ip, uint16_t a_port, IpAddr b_ip, uint16_t b_port);

}  // namespace tas

#endif  // SRC_NET_PACKET_H_
