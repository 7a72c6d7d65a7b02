// Device framework tests: lifecycle, announcement, discovery, open/close
// multiplexing, isolation between instances, timeouts, reset semantics,
// loader service, and failure hooks.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/dev/loader_service.h"
#include "src/dev/replay_guard.h"
#include "src/sim/rng.h"
#include "tests/test_util.h"

namespace lastcpu::dev {
namespace {

using testutil::EchoService;
using testutil::Harness;
using testutil::TestDevice;

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest()
      : nic_(DeviceId(1), "nic", harness_.Context()),
        ssd_(DeviceId(2), "ssd", harness_.Context()) {
    ssd_.AddService(std::make_unique<EchoService>(DeviceId(2), "echo"));
  }

  void PowerOnAll() {
    nic_.PowerOn();
    ssd_.PowerOn();
    harness_.simulator.Run();
  }

  Harness harness_;
  TestDevice nic_;
  TestDevice ssd_;
};

TEST_F(DeviceTest, PowerOnRunsSelfTestThenAnnounces) {
  EXPECT_EQ(nic_.state(), Device::State::kPoweredOff);
  nic_.PowerOn();
  EXPECT_EQ(nic_.state(), Device::State::kSelfTest);
  EXPECT_FALSE(harness_.bus.IsAlive(DeviceId(1)));
  harness_.simulator.Run();
  EXPECT_EQ(nic_.state(), Device::State::kAlive);
  EXPECT_TRUE(harness_.bus.IsAlive(DeviceId(1)));
  EXPECT_EQ(nic_.alive_calls, 1);
}

TEST_F(DeviceTest, SelfTestTakesConfiguredTime) {
  DeviceConfig config;
  config.self_test_duration = sim::Duration::Millis(3);
  TestDevice slow(DeviceId(9), "slow", harness_.Context(), config);
  slow.PowerOn();
  harness_.simulator.RunFor(sim::Duration::Millis(1));
  EXPECT_EQ(slow.state(), Device::State::kSelfTest);
  harness_.simulator.RunFor(sim::Duration::Millis(3));
  EXPECT_EQ(slow.state(), Device::State::kAlive);
}

TEST_F(DeviceTest, DiscoveryFindsMatchingService) {
  PowerOnAll();
  std::optional<std::vector<proto::ServiceDescriptor>> found;
  nic_.rpc().Discover(proto::ServiceType::kCompute, "", sim::Duration::Micros(50),
                      [&](std::vector<proto::ServiceDescriptor> services) { found = services; });
  harness_.simulator.Run();
  ASSERT_TRUE(found.has_value());
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0].name, "echo");
  EXPECT_EQ((*found)[0].provider, DeviceId(2));
}

TEST_F(DeviceTest, DiscoveryOfMissingServiceReturnsEmpty) {
  PowerOnAll();
  std::optional<std::vector<proto::ServiceDescriptor>> found;
  nic_.rpc().Discover(proto::ServiceType::kFile, "nonexistent.log", sim::Duration::Micros(50),
                      [&](std::vector<proto::ServiceDescriptor> services) { found = services; });
  harness_.simulator.Run();
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(found->empty());
}

TEST_F(DeviceTest, OpenCreatesIsolatedInstances) {
  PowerOnAll();
  std::optional<InstanceId> first;
  std::optional<InstanceId> second;
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(1)},
                                       [&](Result<proto::OpenResponse> opened) {
                                         ASSERT_TRUE(opened.ok());
                                         first = opened->instance;
                                       });
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "b", 0, Pasid(2)},
                                       [&](Result<proto::OpenResponse> opened) {
                                         ASSERT_TRUE(opened.ok());
                                         second = opened->instance;
                                       });
  harness_.simulator.Run();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_NE(*first, *second);  // separate contexts per open
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 2u);
}

TEST_F(DeviceTest, OpenUnknownServiceFails) {
  PowerOnAll();
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"nope", "", 0, Pasid(1)},
      [&](Result<proto::OpenResponse> opened) {
        ASSERT_FALSE(opened.ok());
        code = opened.status().code();
      });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kNotFound);
}

TEST_F(DeviceTest, ServiceEnforcesMaxInstances) {
  ssd_.AddService(std::make_unique<EchoService>(DeviceId(2), "limited", 1));
  PowerOnAll();
  int ok = 0;
  int exhausted = 0;
  for (int i = 0; i < 3; ++i) {
    nic_.rpc().Call<proto::OpenResponse>(
        DeviceId(2), proto::OpenRequest{"limited", "", 0, Pasid(1)},
        [&](Result<proto::OpenResponse> opened) {
          if (opened.ok()) {
            ++ok;
          } else if (opened.status().code() == StatusCode::kResourceExhausted) {
            ++exhausted;
          }
        });
  }
  harness_.simulator.Run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(exhausted, 2);
}

TEST_F(DeviceTest, ServiceEnforcesAuthToken) {
  ssd_.AddService(std::make_unique<EchoService>(DeviceId(2), "secure", 0, 0xFEED));
  PowerOnAll();
  std::optional<StatusCode> denied;
  std::optional<InstanceId> opened;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"secure", "", 0xBAD, Pasid(1)},
      [&](Result<proto::OpenResponse> result) { denied = result.status().code(); });
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"secure", "", 0xFEED, Pasid(1)},
      [&](Result<proto::OpenResponse> result) {
        ASSERT_TRUE(result.ok());
        opened = result->instance;
      });
  harness_.simulator.Run();
  EXPECT_EQ(denied, StatusCode::kPermissionDenied);
  EXPECT_TRUE(opened.has_value());
}

TEST_F(DeviceTest, CloseReleasesInstance) {
  PowerOnAll();
  std::optional<InstanceId> instance;
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(1)},
                                       [&](Result<proto::OpenResponse> opened) {
                                         ASSERT_TRUE(opened.ok());
                                         instance = opened->instance;
                                       });
  harness_.simulator.Run();
  ASSERT_TRUE(instance.has_value());
  bool closed = false;
  nic_.rpc().Call<void>(DeviceId(2), proto::CloseRequest{*instance},
                        [&](Result<void> result) { closed = result.ok(); });
  harness_.simulator.Run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 0u);
  // Double close fails.
  std::optional<StatusCode> code;
  nic_.rpc().Call<void>(DeviceId(2), proto::CloseRequest{*instance},
                        [&](Result<void> result) { code = result.status().code(); });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kNotFound);
}

TEST_F(DeviceTest, RequestToDeadDeviceTimesOutOrBounces) {
  nic_.PowerOn();
  harness_.simulator.Run();
  // SSD never powered on: the bus bounces with UNAVAILABLE.
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"echo", "", 0, Pasid(1)},
      [&](Result<proto::OpenResponse> opened) { code = opened.status().code(); });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kUnavailable);
}

TEST_F(DeviceTest, RequestTimesOutWhenPeerFailsMidFlight) {
  PowerOnAll();
  // The SSD fails silently (no bus notification): the NIC's timeout fires.
  ssd_.InjectFailure();
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"echo", "", 0, Pasid(1)},
      [&](Result<proto::OpenResponse> opened) { code = opened.status().code(); });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kTimedOut);
  EXPECT_EQ(nic_.stats().GetCounter("request_timeouts").value(), 1u);
}

TEST_F(DeviceTest, ResetDropsInstancesAndReannounces) {
  PowerOnAll();
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(1)},
                                       [](Result<proto::OpenResponse>) {});
  harness_.simulator.Run();
  ASSERT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 1u);

  harness_.bus.ReportDeviceFailure(DeviceId(2));
  ssd_.InjectFailure();
  harness_.simulator.Run();
  // The bus pulsed reset; the device self-tested and came back clean.
  EXPECT_EQ(ssd_.state(), Device::State::kAlive);
  EXPECT_TRUE(harness_.bus.IsAlive(DeviceId(2)));
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 0u);
}

TEST_F(DeviceTest, PeerFailureTearsDownClientInstances) {
  PowerOnAll();
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(1)},
                                       [](Result<proto::OpenResponse>) {});
  harness_.simulator.Run();
  ASSERT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 1u);
  // The NIC dies; the bus tells the SSD, which drops the NIC's instances.
  nic_.InjectFailure();
  harness_.bus.ReportDeviceFailure(DeviceId(1));
  harness_.simulator.Run();
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 0u);
  EXPECT_EQ(ssd_.failed_peers.size(), 1u);
  EXPECT_EQ(ssd_.failed_peers[0], DeviceId(1));
}

TEST_F(DeviceTest, TeardownAppReachesServicesAndHook) {
  PowerOnAll();
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(5)},
                                       [](Result<proto::OpenResponse>) {});
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "b", 0, Pasid(6)},
                                       [](Result<proto::OpenResponse>) {});
  harness_.simulator.Run();
  ASSERT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 2u);
  nic_.SendOneWay(kBusDevice, proto::TeardownApp{Pasid(5)});
  harness_.simulator.Run();
  // Only PASID 5's instance died.
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 1u);
  ASSERT_EQ(ssd_.teardowns.size(), 1u);
  EXPECT_EQ(ssd_.teardowns[0], Pasid(5));
}

TEST_F(DeviceTest, LoaderServiceStoresImagesWithAuth) {
  auto loader = std::make_unique<LoaderService>(
      DeviceId(2), [](uint64_t token) { return token == 0xFEED; });
  LoaderService* loader_ptr = loader.get();
  ssd_.AddService(std::move(loader));
  PowerOnAll();

  std::optional<StatusCode> denied;
  nic_.rpc().Call<proto::LoadImageResponse>(
      DeviceId(2), proto::LoadImage{"kvs", {1, 2, 3}, 0xBAD},
      [&](Result<proto::LoadImageResponse> loaded) { denied = loaded.status().code(); });
  bool loaded = false;
  nic_.rpc().Call<proto::LoadImageResponse>(
      DeviceId(2), proto::LoadImage{"kvs", {1, 2, 3}, 0xFEED},
      [&](Result<proto::LoadImageResponse> result) { loaded = result.ok(); });
  harness_.simulator.Run();
  EXPECT_EQ(denied, StatusCode::kPermissionDenied);
  EXPECT_TRUE(loaded);
  ASSERT_TRUE(loader_ptr->HasImage("kvs"));
  EXPECT_EQ(loader_ptr->FindImage("kvs")->size(), 3u);
  EXPECT_FALSE(loader_ptr->HasImage("other"));
}

TEST_F(DeviceTest, DoorbellReachesAliveDeviceOnly) {
  PowerOnAll();
  harness_.fabric.RingDoorbell(DeviceId(1), DeviceId(2), 42);
  harness_.simulator.Run();
  ASSERT_EQ(ssd_.doorbells.size(), 1u);
  EXPECT_EQ(ssd_.doorbells[0].second, 42u);
  ssd_.InjectFailure();
  harness_.fabric.RingDoorbell(DeviceId(1), DeviceId(2), 43);
  harness_.simulator.Run();
  EXPECT_EQ(ssd_.doorbells.size(), 1u);  // dead silicon ignores doorbells
}

TEST_F(DeviceTest, UnhandledRequestGetsUnimplementedError) {
  PowerOnAll();
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::MemAllocResponse>(
      DeviceId(2), proto::MemAllocRequest{Pasid(1), 4096, VirtAddr(0), Access::kReadWrite},
      [&](Result<proto::MemAllocResponse> result) { code = result.status().code(); });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kUnimplemented);
}

// --- ReplayGuard -------------------------------------------------------------

using Key = ReplayGuard::Key;

Key MakeKey(uint32_t src, uint64_t n) {
  // Request ids carry the requester in their high bits, as RpcEndpoint mints them.
  return Key{DeviceId(src), RequestId((uint64_t{src} << 40) | n)};
}

proto::Message MakeAnswer(Key key, const std::string& tag) {
  proto::Message response;
  response.dst = key.src;
  response.request_id = key.id;
  response.payload = proto::ErrorResponse{StatusCode::kInternal, tag};
  return response;
}

std::string AnswerTag(const ReplayGuard::Entry& entry) {
  return entry.response.As<proto::ErrorResponse>().message;
}

TEST(ReplayGuardTest, DuplicateBeforeAnswerIsPendingAfterIsReplayed) {
  ReplayGuard guard;
  Key key = MakeKey(3, 1);
  EXPECT_EQ(guard.Admit(key), nullptr);
  const ReplayGuard::Entry* pending = guard.Admit(key);
  ASSERT_NE(pending, nullptr);
  EXPECT_FALSE(pending->answered);

  guard.Answer(MakeAnswer(key, "first"));
  guard.Answer(MakeAnswer(key, "second"));  // only the first answer is kept
  const ReplayGuard::Entry* answered = guard.Admit(key);
  ASSERT_NE(answered, nullptr);
  ASSERT_TRUE(answered->answered);
  EXPECT_EQ(AnswerTag(*answered), "first");
  EXPECT_EQ(answered->response.request_id, key.id);

  // Same request id from another source is a different key.
  EXPECT_EQ(guard.Admit(Key{DeviceId(4), key.id}), nullptr);
  // An answer to a key never admitted is dropped.
  guard.Answer(MakeAnswer(MakeKey(5, 9), "stray"));
  EXPECT_EQ(guard.size(), 2u);
  EXPECT_EQ(guard.Admit(MakeKey(5, 9)), nullptr);
}

TEST(ReplayGuardTest, WindowIsOneFifoSharedBySources) {
  ReplayGuard guard;
  std::vector<Key> keys;
  for (uint64_t n = 0; n <= ReplayGuard::kWindow; ++n) {
    keys.push_back(MakeKey(static_cast<uint32_t>(n % 3) + 1, n));
  }
  for (size_t i = 0; i < ReplayGuard::kWindow; ++i) {
    ASSERT_EQ(guard.Admit(keys[i]), nullptr);
  }
  guard.Answer(MakeAnswer(keys[0], "oldest"));
  EXPECT_EQ(guard.size(), ReplayGuard::kWindow);

  // The 257th key evicts the first, whichever source either came from.
  EXPECT_EQ(guard.Admit(keys[ReplayGuard::kWindow]), nullptr);
  EXPECT_EQ(guard.size(), ReplayGuard::kWindow);
  ASSERT_NE(guard.Admit(keys[1]), nullptr);  // still remembered
  // The evicted key re-executes (its cached answer is gone) and pushes out
  // the next-oldest.
  EXPECT_EQ(guard.Admit(keys[0]), nullptr);
  EXPECT_EQ(guard.Admit(keys[1]), nullptr);
  const ReplayGuard::Entry* again = guard.Admit(keys[0]);
  ASSERT_NE(again, nullptr);
  EXPECT_FALSE(again->answered);
}

TEST(ReplayGuardTest, EvictionAcrossIndexWrapKeepsProbeRunsIntact) {
  // Keys whose probe starts at the index's last cell wrap to cell 0 and up;
  // evicting the first of them must shift the wrapped ones back so none
  // becomes unreachable.
  std::vector<Key> last_cell;
  std::vector<Key> first_cell;
  std::vector<Key> filler;
  for (uint64_t n = 0; last_cell.size() < 4 || first_cell.size() < 2 ||
                       filler.size() < ReplayGuard::kWindow;
       ++n) {
    Key key = MakeKey(7, n);
    size_t home = ReplayGuard::Home(key);
    if (home == ReplayGuard::kIndexSize - 1) {
      last_cell.push_back(key);
    } else if (home == 0) {
      first_cell.push_back(key);
    } else if (home > 8 && home < ReplayGuard::kIndexSize - 8) {
      filler.push_back(key);
    }
  }
  ReplayGuard guard;
  // Cells: A@511, E@0, B@1, F@2, C@3, D@4.
  std::vector<Key> wrapped = {last_cell[0], first_cell[0], last_cell[1],
                              first_cell[1], last_cell[2], last_cell[3]};
  for (Key key : wrapped) {
    ASSERT_EQ(guard.Admit(key), nullptr);
  }
  size_t fill = ReplayGuard::kWindow - wrapped.size();
  for (size_t i = 0; i < fill; ++i) {
    ASSERT_EQ(guard.Admit(filler[i]), nullptr);
  }
  EXPECT_EQ(guard.Admit(filler[fill]), nullptr);  // evicts last_cell[0]
  for (size_t i = 1; i < wrapped.size(); ++i) {
    EXPECT_NE(guard.Admit(wrapped[i]), nullptr) << "wrapped key " << i << " lost";
  }
  EXPECT_EQ(guard.Admit(wrapped[0]), nullptr);  // evicts first_cell[0]
  for (size_t i = 2; i < wrapped.size(); ++i) {
    EXPECT_NE(guard.Admit(wrapped[i]), nullptr) << "wrapped key " << i << " lost";
  }
  EXPECT_EQ(guard.Admit(wrapped[1]), nullptr);
}

TEST(ReplayGuardTest, ClearForgetsEveryKey) {
  ReplayGuard guard;
  Key key = MakeKey(1, 1);
  EXPECT_EQ(guard.Admit(key), nullptr);
  guard.Answer(MakeAnswer(key, "before reset"));
  guard.Clear();
  EXPECT_EQ(guard.size(), 0u);
  EXPECT_EQ(guard.Admit(key), nullptr);
  const ReplayGuard::Entry* entry = guard.Admit(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->answered);
}

// Seeded property test against the map + FIFO-deque guard the ring replaced.
TEST(ReplayGuardTest, MatchesMapAndDequeModel) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    sim::Rng rng(seed);
    ReplayGuard guard;
    using ModelKey = std::pair<uint32_t, uint64_t>;
    std::map<ModelKey, std::optional<std::string>> cache;
    std::deque<ModelKey> order;
    size_t fresh = 0;
    size_t pending = 0;
    size_t replayed = 0;
    size_t readmitted = 0;
    std::map<ModelKey, int> admissions;
    for (int step = 0; step < 40000; ++step) {
      // 4 sources x 100 ids: 400 keys over a 256-key window.
      uint32_t src = static_cast<uint32_t>(rng.NextBelow(4)) + 1;
      uint64_t n = rng.NextBelow(100);
      Key key = MakeKey(src, n);
      ModelKey model_key{src, key.id.value()};
      auto it = cache.find(model_key);
      if (rng.NextBelow(10) < 4) {
        std::string tag = std::to_string(step);
        guard.Answer(MakeAnswer(key, tag));
        if (it != cache.end() && !it->second.has_value()) {
          it->second = tag;
        }
      } else if (it == cache.end()) {
        ASSERT_EQ(guard.Admit(key), nullptr) << "seed " << seed << " step " << step;
        cache.emplace(model_key, std::nullopt);
        order.push_back(model_key);
        if (order.size() > ReplayGuard::kWindow) {
          cache.erase(order.front());
          order.pop_front();
        }
        ++fresh;
        readmitted += admissions[model_key]++ > 0 ? 1 : 0;
      } else {
        const ReplayGuard::Entry* entry = guard.Admit(key);
        ASSERT_NE(entry, nullptr) << "seed " << seed << " step " << step;
        ASSERT_EQ(entry->answered, it->second.has_value());
        if (entry->answered) {
          ASSERT_EQ(AnswerTag(*entry), *it->second);
          ++replayed;
        } else {
          ++pending;
        }
      }
      ASSERT_EQ(guard.size(), order.size());
    }
    // Every outcome the model distinguishes actually happened.
    EXPECT_GT(fresh, 0u);
    EXPECT_GT(pending, 0u);
    EXPECT_GT(replayed, 0u);
    EXPECT_GT(readmitted, 0u);
  }
}

}  // namespace
}  // namespace lastcpu::dev
