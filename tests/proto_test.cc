// Wire codec and message tests: every payload kind round-trips, malformed
// input is rejected, and envelope helpers correlate correctly.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "src/proto/codec.h"
#include "src/proto/message.h"

namespace lastcpu::proto {
namespace {

Message Envelope(Payload payload) {
  return MakeRequest(DeviceId(1), DeviceId(2), RequestId(77), std::move(payload));
}

// Round-trips a message through the codec and checks full equality.
void ExpectRoundTrip(const Message& message) {
  std::vector<uint8_t> wire = EncodeMessage(message);
  EXPECT_EQ(wire.size(), EncodedSize(message));
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->src, message.src);
  EXPECT_EQ(decoded->dst, message.dst);
  EXPECT_EQ(decoded->request_id, message.request_id);
  EXPECT_EQ(decoded->type(), message.type());
  EXPECT_EQ(decoded->payload, message.payload);
}

TEST(CodecTest, ByteWriterLittleEndian) {
  ByteWriter w;
  w.PutU32(0x11223344);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x44);
  EXPECT_EQ(w.bytes()[3], 0x11);
}

TEST(CodecTest, ByteReaderRejectsTruncation) {
  std::vector<uint8_t> buf{1, 2, 3};
  ByteReader r(buf);
  EXPECT_TRUE(r.GetU16().ok());
  EXPECT_FALSE(r.GetU32().ok());
}

TEST(CodecTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("hello");
  w.PutString("");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(MessageTest, TypeMatchesVariantIndex) {
  Message m = Envelope(DiscoverRequest{ServiceType::kFile, "kv.log"});
  EXPECT_EQ(m.type(), MessageType::kDiscoverRequest);
  EXPECT_TRUE(m.Is<DiscoverRequest>());
  EXPECT_FALSE(m.Is<OpenRequest>());
  EXPECT_EQ(m.As<DiscoverRequest>().resource, "kv.log");
}

TEST(MessageTest, MakeResponseCorrelates) {
  Message request = Envelope(CloseRequest{InstanceId(9)});
  Message response = MakeResponse(request, DeviceId(2), CloseResponse{});
  EXPECT_EQ(response.dst, request.src);
  EXPECT_EQ(response.src, DeviceId(2));
  EXPECT_EQ(response.request_id, request.request_id);
}

TEST(MessageTest, MakeErrorCarriesStatus) {
  Message request = Envelope(CloseRequest{InstanceId(9)});
  Message error = MakeError(request, DeviceId(2), NotFound("no such instance"));
  ASSERT_TRUE(error.Is<ErrorResponse>());
  EXPECT_EQ(error.As<ErrorResponse>().code, StatusCode::kNotFound);
  EXPECT_EQ(error.As<ErrorResponse>().message, "no such instance");
}

static_assert(std::variant_size_v<Payload> == kMessageTypeCount);

TEST(MessageTest, EveryMessageTypeHasName) {
  for (size_t t = 0; t < kMessageTypeCount; ++t) {
    EXPECT_NE(MessageTypeName(static_cast<MessageType>(t)), "Unknown");
  }
  EXPECT_EQ(MessageTypeName(MessageType::kLeaseReassertResponse), "LeaseReassertResponse");
  EXPECT_EQ(MessageTypeName(static_cast<MessageType>(kMessageTypeCount)), "Unknown");
}

TEST(MessageTest, EveryServiceTypeHasName) {
  for (uint8_t t = 0; t <= static_cast<uint8_t>(EnumMax(ServiceType{})); ++t) {
    EXPECT_NE(ServiceTypeName(static_cast<ServiceType>(t)), "unknown");
  }
}

// --- round trips for all payload kinds --------------------------------------

TEST(CodecRoundTrip, AliveAnnounce) {
  AliveAnnounce p;
  p.device_name = "smart-ssd0";
  p.services.push_back({DeviceId(4), ServiceType::kFile, "flashfs", 8});
  p.services.push_back({DeviceId(4), ServiceType::kLoader, "loader", 1});
  ExpectRoundTrip(Envelope(p));
}

TEST(CodecRoundTrip, DiscoverRequestAndResponse) {
  ExpectRoundTrip(Envelope(DiscoverRequest{ServiceType::kFile, "kv.log"}));
  ExpectRoundTrip(
      Envelope(DiscoverResponse{ServiceDescriptor{DeviceId(4), ServiceType::kFile, "flashfs", 0}}));
}

TEST(CodecRoundTrip, OpenCloseLifecycle) {
  ExpectRoundTrip(Envelope(OpenRequest{"flashfs", "kv.log", 0xDEADBEEF, Pasid(3)}));
  ExpectRoundTrip(Envelope(OpenResponse{InstanceId(11), 1 << 20, 256}));
  ExpectRoundTrip(Envelope(CloseRequest{InstanceId(11)}));
  ExpectRoundTrip(Envelope(CloseResponse{}));
}

TEST(CodecRoundTrip, MemoryOperations) {
  ExpectRoundTrip(
      Envelope(MemAllocRequest{Pasid(3), 4096 * 4, VirtAddr(0x10000), Access::kReadWrite}));
  ExpectRoundTrip(Envelope(MemAllocResponse{VirtAddr(0x10000), 4096 * 4}));
  ExpectRoundTrip(Envelope(MemFreeRequest{Pasid(3), VirtAddr(0x10000), 4096 * 4}));
  ExpectRoundTrip(Envelope(MemFreeResponse{}));
}

TEST(CodecRoundTrip, BatchedMemoryOperations) {
  ExpectRoundTrip(Envelope(MemAllocBatchRequest{Pasid(3), 4096 * 4, 32, Access::kReadWrite}));
  MemAllocBatchResponse alloc;
  alloc.vaddrs = {VirtAddr(0x10000), VirtAddr(0x20000), VirtAddr(0x30000)};
  alloc.bytes = 4096 * 4;
  ExpectRoundTrip(Envelope(alloc));
  MemFreeBatchRequest free_req;
  free_req.pasid = Pasid(3);
  free_req.vaddrs = {VirtAddr(0x10000), VirtAddr(0x30000)};
  free_req.bytes = 4096 * 4;
  ExpectRoundTrip(Envelope(free_req));
  ExpectRoundTrip(Envelope(MemFreeBatchResponse{}));
  // Empty vaddr lists survive too (a drain of zero regions is never sent,
  // but the codec must not care).
  ExpectRoundTrip(Envelope(MemAllocBatchResponse{}));
}

TEST(CodecRoundTrip, MapDirectiveWithEntries) {
  MapDirective p;
  p.target = DeviceId(7);
  p.pasid = Pasid(3);
  p.entries = {{0x10, 0x999, Access::kReadWrite}, {0x11, 0x99A, Access::kRead}};
  p.unmap = false;
  ExpectRoundTrip(Envelope(p));
  p.unmap = true;
  ExpectRoundTrip(Envelope(p));
}

TEST(CodecRoundTrip, GrantRevoke) {
  ExpectRoundTrip(
      Envelope(GrantRequest{Pasid(3), VirtAddr(0x10000), 8192, DeviceId(4), Access::kRead}));
  ExpectRoundTrip(Envelope(GrantResponse{}));
  ExpectRoundTrip(Envelope(RevokeRequest{Pasid(3), VirtAddr(0x10000), 8192, DeviceId(4)}));
  ExpectRoundTrip(Envelope(RevokeResponse{}));
}

TEST(CodecRoundTrip, NotificationsAndFailures) {
  ExpectRoundTrip(Envelope(Notify{InstanceId(5), 42}));
  ExpectRoundTrip(Envelope(ResourceFailed{"flashfs", InstanceId(5), "media error"}));
  ExpectRoundTrip(Envelope(DeviceFailed{DeviceId(4)}));
  ExpectRoundTrip(Envelope(DevicePermanentlyFailed{DeviceId(4), "crash loop"}));
  ExpectRoundTrip(Envelope(DevicePermanentlyFailed{DeviceId(9), ""}));
  ExpectRoundTrip(Envelope(ResetSignal{}));
  ExpectRoundTrip(Envelope(TeardownApp{Pasid(3)}));
}

TEST(CodecRoundTrip, LoaderAndAuth) {
  LoadImage p;
  p.app_name = "kvs-frontend";
  p.image = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  p.auth_token = 123456789;
  ExpectRoundTrip(Envelope(p));
  ExpectRoundTrip(Envelope(LoadImageResponse{}));
  ExpectRoundTrip(Envelope(AuthRequest{"operator", "hunter2"}));
  ExpectRoundTrip(Envelope(AuthResponse{0xFEED, 1'000'000'000}));
}

TEST(CodecRoundTrip, ErrorResponse) {
  ExpectRoundTrip(Envelope(ErrorResponse{StatusCode::kPermissionDenied, "bad token"}));
}

TEST(CodecRoundTrip, MapConfirm) {
  ExpectRoundTrip(Envelope(MapConfirm{DeviceId(7), Pasid(3)}));
}

TEST(CodecRoundTrip, AttachQueue) {
  ExpectRoundTrip(Envelope(AttachQueue{InstanceId(5), VirtAddr(0x40000)}));
  ExpectRoundTrip(Envelope(AttachQueueResponse{}));
}

TEST(CodecRoundTrip, Heartbeat) {
  ExpectRoundTrip(Envelope(Heartbeat{}));
}

TEST(CodecRoundTrip, FileAdmin) {
  ExpectRoundTrip(Envelope(FileCreate{"new.log", 0xFEED}));
  ExpectRoundTrip(Envelope(FileDelete{"old.log", 0xFEED}));
  ExpectRoundTrip(Envelope(FileAdminResponse{}));
  ExpectRoundTrip(Envelope(FileList{0xFEED}));
  ExpectRoundTrip(Envelope(FileListResponse{{"a.log", "b.log"}}));
}

TEST(CodecRoundTrip, ShardDirectory) {
  ShardRecord shard0{DeviceId(2), 0, 0, uint64_t{1} << 40, 64 << 20};
  ShardRecord shard1{DeviceId((1u << 20) | 2), 1, uint64_t{1} << 40, uint64_t{2} << 40, 64 << 20};
  ExpectRoundTrip(Envelope(MemShardAnnounce{shard1}));
  ExpectRoundTrip(Envelope(ShardDirectoryRequest{}));
  ShardDirectoryResponse directory;
  directory.shards = {shard0, shard1};
  ExpectRoundTrip(Envelope(directory));
  ExpectRoundTrip(Envelope(ShardDirectoryResponse{}));
}

// --- wire goldens ------------------------------------------------------------
//
// One populated sample per message type, in type-tag order, then extra edge
// cases. The bus prices every message's latency from EncodedSize, so these
// exact bytes pin both the wire format and every simulated timing.

std::vector<Message> WireSamples() {
  ShardRecord shard0{DeviceId(2), 0, 0, uint64_t{1} << 40, 64 << 20, 1};
  ShardRecord shard1{MakeSegmentDeviceId(1, 2), 1, uint64_t{1} << 40, uint64_t{2} << 40,
                     32 << 20, 3};
  LeaseRecord granted{Pasid(3), VirtAddr(0x10000), 8192, 0x44, Access::kReadWrite,
                      {{DeviceId(4), Access::kRead}, {MakeSegmentDeviceId(2, 7), Access::kWrite}}};
  LeaseRecord ungranted{Pasid(5), VirtAddr(0x80000), 4096, 0x91, Access::kRead, {}};
  std::vector<Payload> payloads = {
      AliveAnnounce{"smart-ssd0",
                    {{DeviceId(4), ServiceType::kFile, "flashfs", 8},
                     {DeviceId(4), ServiceType::kLoader, "loader", 1}}},
      DiscoverRequest{ServiceType::kKeyValue, "kv.log"},
      DiscoverResponse{ServiceDescriptor{DeviceId(4), ServiceType::kFile, "flashfs", 0}},
      OpenRequest{"flashfs", "kv.log", 0xDEADBEEF, Pasid(3)},
      OpenResponse{InstanceId(11), 1 << 20, 256},
      CloseRequest{InstanceId(11)},
      CloseResponse{},
      MemAllocRequest{Pasid(3), 16384, VirtAddr(0x10000), Access::kReadWrite},
      MemAllocResponse{VirtAddr(0x10000), 16384, 0x1234},
      MapDirective{DeviceId(7),
                   Pasid(3),
                   {{0x10, 0x999, Access::kReadWrite}, {0x11, 0x99A, Access::kRead}},
                   true,
                   5},
      MemFreeRequest{Pasid(3), VirtAddr(0x10000), 16384},
      MemFreeResponse{},
      GrantRequest{Pasid(3), VirtAddr(0x10000), 8192, DeviceId(4), Access::kRead},
      GrantResponse{},
      RevokeRequest{Pasid(3), VirtAddr(0x10000), 8192, DeviceId(4)},
      RevokeResponse{},
      Notify{InstanceId(5), 42},
      ResourceFailed{"flashfs", InstanceId(5), "media error"},
      DeviceFailed{DeviceId(4)},
      ResetSignal{},
      TeardownApp{Pasid(3)},
      LoadImage{"kvs", {0xDE, 0xAD, 0xBE, 0xEF}, 123456789},
      LoadImageResponse{},
      AuthRequest{"operator", "hunter2"},
      AuthResponse{0xFEED, 1'000'000'000},
      ErrorResponse{StatusCode::kPartitioned, "bad token"},
      MapConfirm{DeviceId(7), Pasid(3)},
      AttachQueue{InstanceId(5), VirtAddr(0x40000)},
      AttachQueueResponse{},
      Heartbeat{},
      FileCreate{"new.log", 0xFEED},
      FileDelete{"old.log", 0xFEED},
      FileAdminResponse{},
      FileList{0xFEED},
      FileListResponse{{"a.log", "b.log"}},
      DevicePermanentlyFailed{DeviceId(4), "crash loop"},
      MemAllocBatchRequest{Pasid(3), 16384, 32, Access::kReadWrite},
      MemAllocBatchResponse{{VirtAddr(0x10000), VirtAddr(0x20000)}, 16384, {0x100, 0x104}},
      MemFreeBatchRequest{Pasid(3), {VirtAddr(0x10000)}, 16384},
      MemFreeBatchResponse{},
      MemShardAnnounce{shard1},
      ShardDirectoryRequest{},
      ShardDirectoryResponse{{shard0, shard1}},
      LeaseReassertRequest{{granted, ungranted}},
      LeaseReassertResponse{3, 1, 7},
      // Edge cases past the per-type samples: empty vectors.
      MemAllocBatchResponse{},
  };
  std::vector<Message> samples;
  for (Payload& payload : payloads) {
    samples.push_back(MakeRequest(DeviceId(1), MakeSegmentDeviceId(3, 9), RequestId(0x77),
                                  std::move(payload)));
  }
  return samples;
}

constexpr size_t kPerTypeSamples = 45;

const char* const kWireGoldens[] = {
    "4c4301000001000000090030007700000000000000390000000a000000736d6172742d7373643002"
    "000000040000000107000000666c6173686673080000000400000005060000006c6f616465720100"
    "0000",
    "4c43010100010000000900300077000000000000000b00000008060000006b762e6c6f67",
    "4c430102000100000009003000770000000000000014000000040000000107000000666c61736866"
    "7300000000",
    "4c43010300010000000900300077000000000000002100000007000000666c617368667306000000"
    "6b762e6c6f67efbeadde0000000003000000",
    "4c4301040001000000090030007700000000000000120000000b0000000000000000001000000000"
    "000001",
    "4c4301050001000000090030007700000000000000080000000b00000000000000",
    "4c430106000100000009003000770000000000000000000000",
    "4c430107000100000009003000770000000000000015000000030000000040000000000000000001"
    "000000000003",
    "4c430108000100000009003000770000000000000018000000000001000000000000400000000000"
    "003412000000000000",
    "4c430109000100000009003000770000000000000037000000070000000300000002000000100000"
    "000000000099090000000000000311000000000000009a0900000000000001010500000000000000",
    "4c43010a000100000009003000770000000000000014000000030000000000010000000000004000"
    "0000000000",
    "4c43010b000100000009003000770000000000000000000000",
    "4c43010c000100000009003000770000000000000019000000030000000000010000000000002000"
    "00000000000400000001",
    "4c43010d000100000009003000770000000000000000000000",
    "4c43010e000100000009003000770000000000000018000000030000000000010000000000002000"
    "000000000004000000",
    "4c43010f000100000009003000770000000000000000000000",
    "4c43011000010000000900300077000000000000001000000005000000000000002a000000000000"
    "00",
    "4c43011100010000000900300077000000000000002200000007000000666c617368667305000000"
    "000000000b0000006d65646961206572726f72",
    "4c43011200010000000900300077000000000000000400000004000000",
    "4c430113000100000009003000770000000000000000000000",
    "4c43011400010000000900300077000000000000000400000003000000",
    "4c430115000100000009003000770000000000000017000000030000006b767304000000deadbeef"
    "15cd5b0700000000",
    "4c430116000100000009003000770000000000000000000000",
    "4c430117000100000009003000770000000000000017000000080000006f70657261746f72070000"
    "0068756e74657232",
    "4c430118000100000009003000770000000000000010000000edfe00000000000000ca9a3b000000"
    "00",
    "4c43011900010000000900300077000000000000000e0000000d0900000062616420746f6b656e",
    "4c43011a0001000000090030007700000000000000080000000700000003000000",
    "4c43011b000100000009003000770000000000000010000000050000000000000000000400000000"
    "00",
    "4c43011c000100000009003000770000000000000000000000",
    "4c43011d000100000009003000770000000000000000000000",
    "4c43011e000100000009003000770000000000000013000000070000006e65772e6c6f67edfe0000"
    "00000000",
    "4c43011f000100000009003000770000000000000013000000070000006f6c642e6c6f67edfe0000"
    "00000000",
    "4c430120000100000009003000770000000000000000000000",
    "4c430121000100000009003000770000000000000008000000edfe000000000000",
    "4c4301220001000000090030007700000000000000160000000200000005000000612e6c6f670500"
    "0000622e6c6f67",
    "4c430123000100000009003000770000000000000012000000040000000a0000006372617368206c"
    "6f6f70",
    "4c430124000100000009003000770000000000000011000000030000000040000000000000200000"
    "0003",
    "4c430125000100000009003000770000000000000030000000020000000000010000000000000002"
    "000000000000400000000000000200000000010000000000000401000000000000",
    "4c430126000100000009003000770000000000000018000000030000000100000000000100000000"
    "000040000000000000",
    "4c430127000100000009003000770000000000000000000000",
    "4c430128000100000009003000770000000000000028000000020010000100000000000000000100"
    "00000000000002000000000002000000000300000000000000",
    "4c430129000100000009003000770000000000000000000000",
    "4c43012a000100000009003000770000000000000054000000020000000200000000000000000000"
    "00000000000000000000010000000000040000000001000000000000000200100001000000000000"
    "0000010000000000000002000000000002000000000300000000000000",
    "4c43012b000100000009003000770000000000000050000000020000000300000000000100000000"
    "00002000000000000044000000000000000302000000040000000107002000020500000000000800"
    "00000000001000000000000091000000000000000100000000",
    "4c43012c000100000009003000770000000000000010000000030000000100000007000000000000"
    "00",
    "4c430125000100000009003000770000000000000010000000000000000000000000000000000000"
    "00",
};

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

TEST(CodecGolden, WireBytesPerType) {
  std::vector<Message> samples = WireSamples();
  ASSERT_EQ(std::size(kWireGoldens), samples.size());
  ASSERT_EQ(std::variant_size_v<Payload>, kPerTypeSamples);
  for (size_t i = 0; i < samples.size(); ++i) {
    const Message& m = samples[i];
    if (i < kPerTypeSamples) {
      EXPECT_EQ(static_cast<size_t>(m.type()), i);
    }
    std::string golden = kWireGoldens[i];
    EXPECT_EQ(Hex(EncodeMessage(m)), golden) << "sample " << i << " " << MessageTypeName(m.type());
    EXPECT_EQ(EncodedSize(m), golden.size() / 2) << "sample " << i;
  }
}

TEST(CodecRoundTrip, LeaseReassert) {
  LeaseReassertRequest request;
  request.leases.push_back({Pasid(3), VirtAddr(0x10000), 8192, 0x44, Access::kReadWrite,
                            {{DeviceId(4), Access::kRead}, {DeviceId(9), Access::kReadWrite}}});
  request.leases.push_back({Pasid(5), VirtAddr(0x80000), 4096, 0x91, Access::kRead, {}});
  ExpectRoundTrip(Envelope(request));
  ExpectRoundTrip(Envelope(LeaseReassertRequest{}));
  ExpectRoundTrip(Envelope(LeaseReassertResponse{3, 1, 7}));
  ExpectRoundTrip(Envelope(LeaseReassertResponse{}));
}

// --- seeded decoder mutation -------------------------------------------------
//
// Every golden sample is damaged in four ways: random byte flips, truncation
// at every length, a u32 inflated at every offset (which hits each count and
// length field), and its type tag swapped for every other tag. Decode must
// fail or give a message that re-encodes to exactly the mutated bytes.

// Returns whether `wire` decoded.
bool ExpectDecodesCanonicallyOrFails(const std::vector<uint8_t>& wire) {
  auto decoded = DecodeMessage(wire);
  if (decoded.ok()) {
    EXPECT_EQ(Hex(EncodeMessage(*decoded)), Hex(wire));
  }
  return decoded.ok();
}

TEST(CodecMutation, SeededMutationsDecodeCanonicallyOrFail) {
  std::mt19937_64 rng(0x1A57C9);
  size_t decoded = 0;
  size_t rejected = 0;
  auto check = [&](const std::vector<uint8_t>& wire) {
    ++(ExpectDecodesCanonicallyOrFails(wire) ? decoded : rejected);
  };
  for (const Message& sample : WireSamples()) {
    SCOPED_TRACE(MessageTypeName(sample.type()));
    const std::vector<uint8_t> golden = EncodeMessage(sample);
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<uint8_t> wire = golden;
      for (uint64_t flips = 1 + rng() % 4; flips > 0; --flips) {
        wire[rng() % wire.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
      }
      check(wire);
    }
    for (size_t len = 0; len < golden.size(); ++len) {
      check(std::vector<uint8_t>(golden.begin(), golden.begin() + len));
    }
    for (size_t offset = 0; offset + 4 <= golden.size(); ++offset) {
      for (uint32_t value : {0xFFFFFFFFu, 0x80000000u, static_cast<uint32_t>(golden.size()),
                             static_cast<uint32_t>(golden[offset] + 1)}) {
        std::vector<uint8_t> wire = golden;
        for (size_t i = 0; i < 4; ++i) {
          wire[offset + i] = static_cast<uint8_t>(value >> (8 * i));
        }
        check(wire);
      }
    }
    for (uint16_t tag = 0; tag <= kMessageTypeCount + 1; ++tag) {
      std::vector<uint8_t> wire = golden;
      wire[3] = static_cast<uint8_t>(tag);
      wire[4] = static_cast<uint8_t>(tag >> 8);
      check(wire);
    }
  }
  // Both outcomes must occur, or the mutations test nothing.
  EXPECT_GT(decoded, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// --- malformed input ---------------------------------------------------------

TEST(CodecReject, BadMagic) {
  std::vector<uint8_t> wire = EncodeMessage(Envelope(ResetSignal{}));
  wire[0] = 0x00;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, BadVersion) {
  std::vector<uint8_t> wire = EncodeMessage(Envelope(ResetSignal{}));
  wire[2] = 99;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, UnknownType) {
  std::vector<uint8_t> wire = EncodeMessage(Envelope(ResetSignal{}));
  wire[3] = 0xFF;
  wire[4] = 0xFF;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, TruncationAtEveryLength) {
  std::vector<uint8_t> wire =
      EncodeMessage(Envelope(OpenRequest{"flashfs", "kv.log", 7, Pasid(3)}));
  for (size_t len = 0; len < wire.size(); ++len) {
    auto truncated = DecodeMessage(std::span<const uint8_t>(wire.data(), len));
    EXPECT_FALSE(truncated.ok()) << "decoded from only " << len << " bytes";
  }
}

TEST(CodecReject, TrailingGarbage) {
  std::vector<uint8_t> wire = EncodeMessage(Envelope(ResetSignal{}));
  wire.push_back(0xAB);
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, OversizedMapEntryCount) {
  MapDirective p;
  p.target = DeviceId(7);
  p.pasid = Pasid(3);
  p.entries = {{1, 2, Access::kRead}};
  std::vector<uint8_t> wire = EncodeMessage(Envelope(p));
  // The entry-count field sits right after target(4) + pasid(4) in the
  // payload, which begins at header offset 25.
  size_t count_offset = 25 + 8;
  wire[count_offset] = 0xFF;
  wire[count_offset + 1] = 0xFF;
  wire[count_offset + 2] = 0xFF;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, NonCanonicalBool) {
  std::vector<uint8_t> wire =
      EncodeMessage(Envelope(MapDirective{DeviceId(7), Pasid(3), {}, true, 9}));
  // The unmap flag sits just before the 8-byte epoch that ends the payload.
  size_t unmap_offset = wire.size() - 9;
  ASSERT_EQ(wire[unmap_offset], 1);
  wire[unmap_offset] = 2;
  auto decoded = DecodeMessage(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecReject, BadAccessBits) {
  std::vector<uint8_t> wire = EncodeMessage(
      Envelope(MemAllocRequest{Pasid(1), 4096, VirtAddr(0), Access::kReadWrite}));
  wire.back() = 0xFF;  // access byte is last in MemAllocRequest
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

}  // namespace
}  // namespace lastcpu::proto
