// Tests for packet headers, wire serialization, checksums and flow hashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/util/rng.h"

namespace tas {
namespace {

PacketPtr SamplePacket(PacketPool& pool) {
  auto pkt = MakeTcpPacket(pool, MakeIp(10, 0, 0, 1), 12345, MakeIp(10, 0, 0, 2), 80, 1000,
                           2000, TcpFlags::kAck | TcpFlags::kPsh, {1, 2, 3, 4, 5});
  pkt->tcp.window = 4096;
  pkt->ip.ecn = Ecn::kEct0;
  return pkt;
}

TEST(PacketTest, IpToString) {
  EXPECT_EQ(IpToString(MakeIp(10, 1, 2, 3)), "10.1.2.3");
  EXPECT_EQ(IpToString(MakeIp(255, 255, 255, 255)), "255.255.255.255");
}

TEST(PacketTest, WireBytesAccounting) {
  PacketPool pool;
  auto pkt = SamplePacket(pool);
  // 14 eth + 20 ip + 20 tcp + 5 payload, no options.
  EXPECT_EQ(pkt->WireBytes(), 59u);
  pkt->tcp.has_timestamps = true;
  EXPECT_EQ(pkt->tcp.OptionBytes(), 12u);  // 10 padded to 12.
  EXPECT_EQ(pkt->WireBytes(), 71u);
}

TEST(PacketTest, SerializeParseRoundTrip) {
  PacketPool pool;
  auto pkt = SamplePacket(pool);
  pkt->tcp.has_timestamps = true;
  pkt->tcp.ts_val = 111;
  pkt->tcp.ts_ecr = 222;
  const auto bytes = Serialize(*pkt);
  EXPECT_EQ(bytes.size(), pkt->WireBytes());
  auto parsed = Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.src, pkt->ip.src);
  EXPECT_EQ(parsed->ip.dst, pkt->ip.dst);
  EXPECT_EQ(parsed->ip.ecn, Ecn::kEct0);
  EXPECT_EQ(parsed->tcp.src_port, 12345);
  EXPECT_EQ(parsed->tcp.dst_port, 80);
  EXPECT_EQ(parsed->tcp.seq, 1000u);
  EXPECT_EQ(parsed->tcp.ack, 2000u);
  EXPECT_EQ(parsed->tcp.flags, pkt->tcp.flags);
  EXPECT_EQ(parsed->tcp.window, 4096);
  EXPECT_TRUE(parsed->tcp.has_timestamps);
  EXPECT_EQ(parsed->tcp.ts_val, 111u);
  EXPECT_EQ(parsed->tcp.ts_ecr, 222u);
  EXPECT_EQ(parsed->payload, pkt->payload);
}

TEST(PacketTest, SynOptionsRoundTrip) {
  PacketPool pool;
  auto pkt = MakeTcpPacket(pool, MakeIp(10, 0, 0, 1), 1, MakeIp(10, 0, 0, 2), 2, 42, 0,
                           TcpFlags::kSyn);
  pkt->tcp.has_mss = true;
  pkt->tcp.mss = 1448;
  pkt->tcp.has_wscale = true;
  pkt->tcp.wscale = 7;
  auto parsed = Parse(Serialize(*pkt));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->tcp.has_mss);
  EXPECT_EQ(parsed->tcp.mss, 1448);
  EXPECT_TRUE(parsed->tcp.has_wscale);
  EXPECT_EQ(parsed->tcp.wscale, 7);
  EXPECT_TRUE(parsed->tcp.syn());
}

TEST(PacketTest, SackBlocksRoundTrip) {
  PacketPool pool;
  auto pkt = MakeTcpPacket(pool, MakeIp(1, 1, 1, 1), 5, MakeIp(2, 2, 2, 2), 6, 0, 77,
                           TcpFlags::kAck);
  pkt->tcp.num_sack = 2;
  pkt->tcp.sack[0] = {100, 200};
  pkt->tcp.sack[1] = {300, 450};
  auto parsed = Parse(Serialize(*pkt));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->tcp.num_sack, 2);
  EXPECT_EQ(parsed->tcp.sack[0].start, 100u);
  EXPECT_EQ(parsed->tcp.sack[0].end, 200u);
  EXPECT_EQ(parsed->tcp.sack[1].start, 300u);
  EXPECT_EQ(parsed->tcp.sack[1].end, 450u);
}

TEST(PacketTest, CorruptionDetected) {
  PacketPool pool;
  auto bytes = Serialize(*SamplePacket(pool));
  // Flip a payload bit: TCP checksum must fail.
  bytes[bytes.size() - 1] ^= 0x01;
  EXPECT_FALSE(Parse(bytes).has_value());
}

TEST(PacketTest, IpHeaderCorruptionDetected) {
  PacketPool pool;
  auto bytes = Serialize(*SamplePacket(pool));
  bytes[14 + 8] ^= 0xFF;  // TTL byte inside the IP header.
  EXPECT_FALSE(Parse(bytes).has_value());
}

TEST(PacketTest, TruncatedRejected) {
  PacketPool pool;
  auto bytes = Serialize(*SamplePacket(pool));
  bytes.resize(30);
  EXPECT_FALSE(Parse(bytes).has_value());
}

TEST(PacketTest, ChecksumKnownVector) {
  // RFC 1071 example: {0x0001, 0xf203, 0xf4f5, 0xf6f7} -> sum 2ddf0 ->
  // carry-folded ddf2 -> complement 220d.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data, sizeof(data)), 0x220d);
}

TEST(PacketTest, RandomRoundTripProperty) {
  PacketPool pool;
  Rng rng(55);
  for (int i = 0; i < 200; ++i) {
    auto pkt = MakeTcpPacket(pool, static_cast<IpAddr>(rng.Next()),
                             static_cast<uint16_t>(rng.Next()),
                             static_cast<IpAddr>(rng.Next()),
                             static_cast<uint16_t>(rng.Next()),
                             static_cast<uint32_t>(rng.Next()),
                             static_cast<uint32_t>(rng.Next()),
                             static_cast<uint8_t>(rng.Next() & 0xDF));  // No URG.
    const size_t len = rng.NextUint64(1460);
    pkt->payload.resize(len);
    for (auto& b : pkt->payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    if (rng.NextBool(0.5)) {
      pkt->tcp.has_timestamps = true;
      pkt->tcp.ts_val = static_cast<uint32_t>(rng.Next());
      pkt->tcp.ts_ecr = static_cast<uint32_t>(rng.Next());
    }
    auto parsed = Parse(Serialize(*pkt));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tcp.seq, pkt->tcp.seq);
    EXPECT_EQ(parsed->payload, pkt->payload);
  }
}

// Recomputes the IP header and TCP checksums of a (possibly mutated) frame
// whose lengths still fit, so mutations reach the option parser instead of
// stopping at the checksum check.
void Reseal(std::vector<uint8_t>& bytes) {
  constexpr size_t kIp = 14;
  if (bytes.size() < kIp + 40) {
    return;
  }
  uint8_t* ip = bytes.data() + kIp;
  ip[10] = ip[11] = 0;
  const uint16_t ip_sum = InternetChecksum(ip, 20);
  ip[10] = static_cast<uint8_t>(ip_sum >> 8);
  ip[11] = static_cast<uint8_t>(ip_sum);
  const size_t total_len = (static_cast<size_t>(ip[2]) << 8) | ip[3];
  if (total_len < 40 || kIp + total_len > bytes.size()) {
    return;
  }
  uint8_t* tcp = ip + 20;
  const size_t tcp_len = total_len - 20;
  tcp[16] = tcp[17] = 0;
  std::vector<uint8_t> pseudo(ip + 12, ip + 20);
  pseudo.push_back(0);
  pseudo.push_back(ip[9]);
  pseudo.push_back(static_cast<uint8_t>(tcp_len >> 8));
  pseudo.push_back(static_cast<uint8_t>(tcp_len));
  pseudo.insert(pseudo.end(), tcp, tcp + tcp_len);
  const uint16_t tcp_sum = InternetChecksum(pseudo.data(), pseudo.size());
  tcp[16] = static_cast<uint8_t>(tcp_sum >> 8);
  tcp[17] = static_cast<uint8_t>(tcp_sum);
}

// Random bytes, truncations and byte flips of valid frames: every call
// either parses or reports malformed input, and none reads out of bounds
// (run under the asan preset to check the latter).
TEST(PacketTest, MalformedFramesParseOrReject) {
  PacketPool pool;
  Rng rng(404);
  int parsed_count = 0;
  int rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    auto pkt = MakeTcpPacket(pool, MakeIp(10, 0, 0, 1), 7, MakeIp(10, 0, 0, 2), 9,
                             static_cast<uint32_t>(rng.Next()), 0, TcpFlags::kSyn);
    pkt->tcp.has_mss = true;
    pkt->tcp.mss = 1448;
    pkt->tcp.has_wscale = rng.NextBool(0.5);
    pkt->tcp.has_timestamps = rng.NextBool(0.5);
    pkt->payload.resize(rng.NextUint64(64));
    std::vector<uint8_t> bytes = Serialize(*pkt);
    switch (rng.NextUint64(4)) {
      case 0:  // Truncation.
        bytes.resize(rng.NextUint64(bytes.size() + 1));
        break;
      case 1:  // Byte flips anywhere; checksums catch most.
        for (uint64_t f = 1 + rng.NextUint64(4); f > 0; --f) {
          bytes[rng.NextUint64(bytes.size())] = static_cast<uint8_t>(rng.Next());
        }
        break;
      case 2:  // Header and option flips behind valid checksums.
        for (uint64_t f = 1 + rng.NextUint64(4); f > 0; --f) {
          bytes[14 + rng.NextUint64(std::min<size_t>(bytes.size() - 14, 60))] =
              static_cast<uint8_t>(rng.Next());
        }
        Reseal(bytes);
        break;
      default:  // Pure noise.
        bytes.resize(rng.NextUint64(128));
        for (uint8_t& b : bytes) {
          b = static_cast<uint8_t>(rng.Next());
        }
        break;
    }
    const std::optional<Packet> parsed = Parse(bytes);
    if (parsed.has_value()) {
      ++parsed_count;
      EXPECT_LE(parsed->payload.size(), bytes.size());
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(parsed_count, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FlowHashTest, SymmetricHashMatchesBothDirections) {
  const IpAddr a = MakeIp(10, 0, 0, 1);
  const IpAddr b = MakeIp(10, 0, 0, 2);
  EXPECT_EQ(SymmetricFlowHash(a, 100, b, 200), SymmetricFlowHash(b, 200, a, 100));
  EXPECT_NE(SymmetricFlowHash(a, 100, b, 200), SymmetricFlowHash(a, 101, b, 200));
}

TEST(FlowHashTest, DirectionalHashSpreads) {
  // Hash values over many flows should cover many buckets.
  std::vector<int> buckets(16, 0);
  for (uint16_t port = 1000; port < 2000; ++port) {
    buckets[FlowHash(MakeIp(10, 0, 0, 1), port, MakeIp(10, 0, 0, 2), 80) % 16]++;
  }
  for (int count : buckets) {
    EXPECT_GT(count, 20);  // Roughly uniform (62.5 expected).
  }
}

TEST(PacketTest, DescribeContainsEndpoints) {
  PacketPool pool;
  auto pkt = SamplePacket(pool);
  const std::string desc = pkt->Describe();
  EXPECT_NE(desc.find("10.0.0.1:12345"), std::string::npos);
  EXPECT_NE(desc.find("10.0.0.2:80"), std::string::npos);
}

}  // namespace
}  // namespace tas
