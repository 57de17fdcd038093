#include "src/net/packet.h"

#include <cstring>
#include <sstream>

#include "src/net/packet_pool.h"
#include "src/util/logging.h"

namespace tas {
namespace {

constexpr size_t kEthHeaderBytes = 14;
constexpr size_t kIpv4HeaderBytes = 20;
constexpr size_t kTcpBaseHeaderBytes = 20;
// Preamble + SFD + FCS + min IFG are ignored: links charge header+payload.

void Put16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void Put32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

uint16_t Get16(const uint8_t* p) { return static_cast<uint16_t>((p[0] << 8) | p[1]); }

uint32_t Get32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::string IpToString(IpAddr ip) {
  std::ostringstream os;
  os << ((ip >> 24) & 0xFF) << "." << ((ip >> 16) & 0xFF) << "." << ((ip >> 8) & 0xFF) << "."
     << (ip & 0xFF);
  return os.str();
}

size_t TcpHeader::OptionBytes() const {
  size_t n = 0;
  if (has_mss) {
    n += 4;
  }
  if (has_wscale) {
    n += 3;
  }
  if (has_timestamps) {
    n += 10;
  }
  if (num_sack > 0) {
    n += 2 + static_cast<size_t>(num_sack) * 8;
  }
  // Pad to 4-byte multiple with NOPs.
  return (n + 3) & ~size_t{3};
}

size_t Packet::WireBytes() const {
  return kEthHeaderBytes + kIpv4HeaderBytes + kTcpBaseHeaderBytes + tcp.OptionBytes() +
         payload.size();
}

std::string Packet::Describe() const {
  std::ostringstream os;
  os << IpToString(ip.src) << ":" << tcp.src_port << " > " << IpToString(ip.dst) << ":"
     << tcp.dst_port;
  if (tcp.syn()) {
    os << " SYN";
  }
  if (tcp.fin()) {
    os << " FIN";
  }
  if (tcp.rst()) {
    os << " RST";
  }
  if (tcp.ack_flag()) {
    os << " ACK=" << tcp.ack;
  }
  os << " seq=" << tcp.seq << " len=" << payload.size();
  if (ip.ecn == Ecn::kCe) {
    os << " CE";
  }
  if (tcp.ece()) {
    os << " ECE";
  }
  return os.str();
}

PacketPtr MakeTcpPacket(PacketPool& pool, IpAddr src_ip, uint16_t src_port, IpAddr dst_ip,
                        uint16_t dst_port, uint32_t seq, uint32_t ack, uint8_t flags,
                        std::vector<uint8_t> payload) {
  PacketPtr pkt = pool.Acquire();
  pkt->ip.src = src_ip;
  pkt->ip.dst = dst_ip;
  pkt->tcp.src_port = src_port;
  pkt->tcp.dst_port = dst_port;
  pkt->tcp.seq = seq;
  pkt->tcp.ack = ack;
  pkt->tcp.flags = flags;
  if (!payload.empty()) {
    pkt->payload = std::move(payload);
  }
  return pkt;
}

uint16_t InternetChecksum(const uint8_t* data, size_t len) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += static_cast<uint64_t>(Get16(data + i));
  }
  if (i < len) {
    sum += static_cast<uint64_t>(data[i]) << 8;
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

std::vector<uint8_t> Serialize(const Packet& pkt) {
  std::vector<uint8_t> out;
  out.reserve(pkt.WireBytes());

  // Ethernet.
  for (int i = 5; i >= 0; --i) {
    out.push_back(static_cast<uint8_t>(pkt.eth.dst >> (8 * i)));
  }
  for (int i = 5; i >= 0; --i) {
    out.push_back(static_cast<uint8_t>(pkt.eth.src >> (8 * i)));
  }
  Put16(out, pkt.eth.ethertype);

  // IPv4.
  const size_t tcp_len = kTcpBaseHeaderBytes + pkt.tcp.OptionBytes() + pkt.payload.size();
  const size_t ip_start = out.size();
  out.push_back(0x45);  // Version 4, IHL 5.
  out.push_back(static_cast<uint8_t>((pkt.ip.dscp << 2) | static_cast<uint8_t>(pkt.ip.ecn)));
  Put16(out, static_cast<uint16_t>(kIpv4HeaderBytes + tcp_len));
  Put16(out, 0);       // Identification.
  Put16(out, 0x4000);  // Flags: DF (datacenter packets are never fragmented).
  out.push_back(pkt.ip.ttl);
  out.push_back(pkt.ip.protocol);
  Put16(out, 0);  // Checksum placeholder.
  Put32(out, pkt.ip.src);
  Put32(out, pkt.ip.dst);
  const uint16_t ip_csum = InternetChecksum(out.data() + ip_start, kIpv4HeaderBytes);
  out[ip_start + 10] = static_cast<uint8_t>(ip_csum >> 8);
  out[ip_start + 11] = static_cast<uint8_t>(ip_csum);

  // TCP.
  const size_t tcp_start = out.size();
  const size_t data_offset_words = (kTcpBaseHeaderBytes + pkt.tcp.OptionBytes()) / 4;
  Put16(out, pkt.tcp.src_port);
  Put16(out, pkt.tcp.dst_port);
  Put32(out, pkt.tcp.seq);
  Put32(out, pkt.tcp.ack);
  out.push_back(static_cast<uint8_t>(data_offset_words << 4));
  out.push_back(pkt.tcp.flags);
  Put16(out, pkt.tcp.window);
  Put16(out, 0);  // Checksum placeholder.
  Put16(out, 0);  // Urgent pointer.

  // Options.
  size_t opt_bytes = 0;
  if (pkt.tcp.has_mss) {
    out.push_back(2);
    out.push_back(4);
    Put16(out, pkt.tcp.mss);
    opt_bytes += 4;
  }
  if (pkt.tcp.has_wscale) {
    out.push_back(3);
    out.push_back(3);
    out.push_back(pkt.tcp.wscale);
    opt_bytes += 3;
  }
  if (pkt.tcp.has_timestamps) {
    out.push_back(8);
    out.push_back(10);
    Put32(out, pkt.tcp.ts_val);
    Put32(out, pkt.tcp.ts_ecr);
    opt_bytes += 10;
  }
  if (pkt.tcp.num_sack > 0) {
    out.push_back(5);
    out.push_back(static_cast<uint8_t>(2 + pkt.tcp.num_sack * 8));
    for (uint8_t i = 0; i < pkt.tcp.num_sack; ++i) {
      Put32(out, pkt.tcp.sack[i].start);
      Put32(out, pkt.tcp.sack[i].end);
    }
    opt_bytes += 2 + static_cast<size_t>(pkt.tcp.num_sack) * 8;
  }
  while (opt_bytes % 4 != 0) {
    out.push_back(1);  // NOP padding.
    ++opt_bytes;
  }

  // Payload.
  out.insert(out.end(), pkt.payload.begin(), pkt.payload.end());

  // TCP checksum over pseudo-header + segment.
  std::vector<uint8_t> pseudo;
  Put32(pseudo, pkt.ip.src);
  Put32(pseudo, pkt.ip.dst);
  pseudo.push_back(0);
  pseudo.push_back(pkt.ip.protocol);
  Put16(pseudo, static_cast<uint16_t>(tcp_len));
  pseudo.insert(pseudo.end(), out.begin() + static_cast<long>(tcp_start), out.end());
  const uint16_t tcp_csum = InternetChecksum(pseudo.data(), pseudo.size());
  out[tcp_start + 16] = static_cast<uint8_t>(tcp_csum >> 8);
  out[tcp_start + 17] = static_cast<uint8_t>(tcp_csum);

  return out;
}

std::optional<Packet> Parse(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kEthHeaderBytes + kIpv4HeaderBytes + kTcpBaseHeaderBytes) {
    return std::nullopt;
  }
  Packet pkt;
  const uint8_t* p = bytes.data();
  for (int i = 0; i < 6; ++i) {
    pkt.eth.dst = (pkt.eth.dst << 8) | p[i];
  }
  for (int i = 6; i < 12; ++i) {
    pkt.eth.src = (pkt.eth.src << 8) | p[i];
  }
  pkt.eth.ethertype = Get16(p + 12);

  const uint8_t* ip = p + kEthHeaderBytes;
  if ((ip[0] >> 4) != 4 || (ip[0] & 0x0F) != 5) {
    return std::nullopt;
  }
  if (InternetChecksum(ip, kIpv4HeaderBytes) != 0) {
    return std::nullopt;
  }
  pkt.ip.dscp = static_cast<uint8_t>(ip[1] >> 2);
  pkt.ip.ecn = static_cast<Ecn>(ip[1] & 0x3);
  const uint16_t total_len = Get16(ip + 2);
  pkt.ip.ttl = ip[8];
  pkt.ip.protocol = ip[9];
  pkt.ip.src = Get32(ip + 12);
  pkt.ip.dst = Get32(ip + 16);
  if (total_len < kIpv4HeaderBytes + kTcpBaseHeaderBytes ||
      kEthHeaderBytes + total_len > bytes.size()) {
    return std::nullopt;
  }

  const uint8_t* tcp = ip + kIpv4HeaderBytes;
  const size_t tcp_len = total_len - kIpv4HeaderBytes;
  pkt.tcp.src_port = Get16(tcp);
  pkt.tcp.dst_port = Get16(tcp + 2);
  pkt.tcp.seq = Get32(tcp + 4);
  pkt.tcp.ack = Get32(tcp + 8);
  const size_t data_offset = static_cast<size_t>(tcp[12] >> 4) * 4;
  pkt.tcp.flags = tcp[13];
  pkt.tcp.window = Get16(tcp + 14);
  if (data_offset < kTcpBaseHeaderBytes || data_offset > tcp_len) {
    return std::nullopt;
  }

  // Verify TCP checksum over pseudo-header + segment.
  std::vector<uint8_t> pseudo;
  Put32(pseudo, pkt.ip.src);
  Put32(pseudo, pkt.ip.dst);
  pseudo.push_back(0);
  pseudo.push_back(pkt.ip.protocol);
  Put16(pseudo, static_cast<uint16_t>(tcp_len));
  pseudo.insert(pseudo.end(), tcp, tcp + tcp_len);
  if (InternetChecksum(pseudo.data(), pseudo.size()) != 0) {
    return std::nullopt;
  }

  // Options.
  size_t off = kTcpBaseHeaderBytes;
  while (off < data_offset) {
    const uint8_t kind = tcp[off];
    if (kind == 0) {  // End of options.
      break;
    }
    if (kind == 1) {  // NOP.
      ++off;
      continue;
    }
    if (off + 1 >= data_offset) {
      return std::nullopt;
    }
    const uint8_t len = tcp[off + 1];
    if (len < 2 || off + len > data_offset) {
      return std::nullopt;
    }
    switch (kind) {
      case 2:
        if (len == 4) {
          pkt.tcp.has_mss = true;
          pkt.tcp.mss = Get16(tcp + off + 2);
        }
        break;
      case 3:
        if (len == 3) {
          pkt.tcp.has_wscale = true;
          pkt.tcp.wscale = tcp[off + 2];
        }
        break;
      case 8:
        if (len == 10) {
          pkt.tcp.has_timestamps = true;
          pkt.tcp.ts_val = Get32(tcp + off + 2);
          pkt.tcp.ts_ecr = Get32(tcp + off + 6);
        }
        break;
      case 5: {
        const uint8_t blocks = static_cast<uint8_t>((len - 2) / 8);
        pkt.tcp.num_sack = std::min<uint8_t>(blocks, 3);
        for (uint8_t i = 0; i < pkt.tcp.num_sack; ++i) {
          pkt.tcp.sack[i].start = Get32(tcp + off + 2 + i * 8);
          pkt.tcp.sack[i].end = Get32(tcp + off + 6 + i * 8);
        }
        break;
      }
      default:
        break;  // Unknown options are skipped (fast path treats as exception).
    }
    off += len;
  }

  pkt.payload.assign(tcp + data_offset, tcp + tcp_len);
  return pkt;
}

uint32_t FlowHash(IpAddr src_ip, uint16_t src_port, IpAddr dst_ip, uint16_t dst_port) {
  uint64_t k = (static_cast<uint64_t>(src_ip) << 32) | dst_ip;
  uint64_t k2 = (static_cast<uint64_t>(src_port) << 16) | dst_port;
  return static_cast<uint32_t>(Mix64(k ^ Mix64(k2)));
}

uint32_t SymmetricFlowHash(IpAddr a_ip, uint16_t a_port, IpAddr b_ip, uint16_t b_port) {
  // Order the endpoints so both directions produce identical input.
  const uint64_t ea = (static_cast<uint64_t>(a_ip) << 16) | a_port;
  const uint64_t eb = (static_cast<uint64_t>(b_ip) << 16) | b_port;
  const uint64_t lo = ea < eb ? ea : eb;
  const uint64_t hi = ea < eb ? eb : ea;
  return static_cast<uint32_t>(Mix64(lo ^ Mix64(hi)));
}

}  // namespace tas
