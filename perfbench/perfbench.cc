// The repository benchmark: four workloads over the emulated CPU-less machine
// and its centralized-kernel baseline, with host-clock and simulated-clock
// end-to-end metrics, a per-layer read-out and a traced run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Each repetition builds the workload from scratch (set-up is timed), runs a
// fixed, seed-determined op stream (the timed window), then checks the
// outputs. Simulated results depend only on the seed, so every repetition of
// a run must reproduce them exactly; host times are the medians over the
// repetitions that fit in --seconds, and host cost per op is counted in events
// of a fixed reference loop timed between the repetitions.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: the read-out deltas of one untraced repetition, the bus codec
// timing, and the self-time breakdown of shorter traced repetitions, paired
// with untraced ones of the same length for the tracing overhead.
//
// The result is one JSON object on the last line of standard output.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/trace_breakdown.h"
#include "src/baseline/central_kernel.h"
#include "src/core/control_plane.h"
#include "src/core/machine.h"
#include "src/kvs/kvs_app.h"
#include "src/kvs/workload.h"
#include "src/sim/rng.h"

namespace lastcpu::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- host speed reference -----------------------------------------------------

// A shared host's speed drifts: by up to 2.5x between runs minutes apart,
// while the process's CPU time stays equal to its wall time. Host cost per op
// is therefore reported against a fixed reference loop timed between the
// repetitions. The loop has the emulator's shape: a binary-heap event queue,
// lookups and erases in a hash table, 256 B payload copies and an indirect
// call per event. It runs twice, over a table that fits in the core's caches
// and over one of about 10 MB. Under the host's contention the emulator slowed
// more than the loop over the cached table, and more or less than the loop
// over the large one at different times; the sum of the two tracked it best
// (perfbench/NOTES.md). Each run builds a fresh loop in an arena of its own and fills its
// table before it is timed, so neither the program's heap state nor the loop's
// history changes its cost. The arena is allocated once and stays resident for
// the whole run, so its share of the peak RSS is fixed.
constexpr uint64_t kReferenceKeys[] = {2048, 32768};
constexpr uint32_t kReferenceEvents = 50'000;

struct ReferenceResult {
  double ns_per_event = 0;
  uint64_t checksum = 0;  // the same on every call: the loop's work is fixed
};

ReferenceResult RunReference(uint64_t keys) {
  static std::vector<std::byte> arena(16 << 20);
  std::pmr::monotonic_buffer_resource buffer(arena.data(), arena.size());
  std::pmr::unsynchronized_pool_resource pool(&buffer);

  struct Event {
    uint64_t when;
    uint64_t key;
    bool operator>(const Event& other) const { return when > other.when; }
  };
  std::priority_queue<Event, std::pmr::vector<Event>, std::greater<Event>> queue{
      std::greater<Event>{}, std::pmr::vector<Event>(&pool)};
  std::pmr::unordered_map<uint64_t, std::pmr::vector<uint8_t>> table(&pool);
  uint64_t (*volatile fold)(uint64_t, uint8_t) = [](uint64_t h, uint8_t b) -> uint64_t {
    return (h ^ b) * 1099511628211ull;
  };
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t checksum = 1469598103934665603ull;
  auto run = [&](uint64_t events) {
    for (uint64_t i = 0; i < events; ++i) {
      Event e = queue.top();
      queue.pop();
      auto [it, fresh] = table.try_emplace(e.key);
      if (fresh) {
        it->second.assign(256, static_cast<uint8_t>(e.key));
      }
      std::pmr::vector<uint8_t> payload(it->second, &pool);
      checksum = fold(checksum, payload[e.when % payload.size()]);
      if (e.key % 3 == 0) {
        table.erase(it);
      }
      queue.push(Event{e.when + 1 + next() % 1024, next() % keys});
    }
  };
  for (int i = 0; i < 1024; ++i) {
    queue.push(Event{next() % 1024, next() % keys});
  }
  run(3 * keys);  // about three touches per key: the table reaches its steady size
  Clock::time_point start = Clock::now();
  run(kReferenceEvents);
  double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return ReferenceResult{ns / kReferenceEvents, checksum};
}

// Host ns of one reference event: one event of the loop over each table.
double ReferenceEventNs() {
  double ns = 0;
  for (uint64_t keys : kReferenceKeys) {
    ns += RunReference(keys).ns_per_event;
  }
  return ns;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer: independent per-client streams from one seed.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Nearest-rank percentile of ascending `sorted`: the smallest sample with at
// least q of all samples at or below it. With n samples, ceil(n * (1 - q)) - 1
// samples lie beyond it, so p999 over 10,000 samples has 10 beyond.
uint64_t Percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// --- benchmark-side spans ---------------------------------------------------

// Opens the benchmark's per-op root spans and per-call step spans, and notes
// which program spans were opened inside each synchronous call (see
// trace_breakdown.h). Every method is a no-op while the log is disabled.
class OpTracer {
 public:
  OpTracer(sim::TraceLog* log, const sim::Simulator* simulator)
      : log_(log), tracer_(log, simulator, kBenchComponent) {}

  sim::SpanId Begin(std::string_view name, sim::SpanId parent = 0) {
    return tracer_.BeginSpan(name, parent);
  }
  void End(sim::SpanId span) { tracer_.EndSpan(span); }

  // Runs `call`; parentless program spans it opens become children of `step`.
  template <typename F>
  void Adopt(sim::SpanId step, F&& call) {
    if (!tracer_.enabled()) {
      call();
      return;
    }
    size_t begin = log_->records().size();
    call();
    adoptions_.push_back(AdoptionRange{begin, log_->records().size(), step});
  }

  void CompleteOp(sim::SpanId root, bool ok) {
    End(root);
    if (ok && root != 0) {
      ok_roots_.push_back(root);
    }
  }

  BreakdownInput Input(std::map<std::string, std::string> layer_of) const {
    return BreakdownInput{&log_->records(), adoptions_, ok_roots_, std::move(layer_of)};
  }

 private:
  sim::TraceLog* log_;
  sim::Tracer tracer_;
  std::vector<AdoptionRange> adoptions_;
  std::vector<sim::SpanId> ok_roots_;
};

// --- one repetition ---------------------------------------------------------

struct Rep {
  double setup_s = 0;
  double window_s = 0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> latency_ns;  // successful ops, ascending
  std::vector<uint64_t> get_ns;
  std::vector<uint64_t> put_ns;
  uint64_t sim_window_ns = 0;
  std::map<std::string, uint64_t> failures_by_status;
  MetricMap setup;   // per-layer set-up spans
  MetricMap layers;  // per-layer window deltas
  std::optional<Breakdown> breakdown;
  std::vector<std::string> errors;  // output checks that failed

  // Adds another stream's simulated results (pooling streams of one run).
  void Merge(const Rep& other) {
    attempted += other.attempted;
    ok += other.ok;
    failed += other.failed;
    sim_window_ns += other.sim_window_ns;
    latency_ns.insert(latency_ns.end(), other.latency_ns.begin(), other.latency_ns.end());
  }

  void Finalize() {
    std::sort(latency_ns.begin(), latency_ns.end());
    std::sort(get_ns.begin(), get_ns.end());
    std::sort(put_ns.begin(), put_ns.end());
  }

  void CountFailure(StatusCode code) { ++failures_by_status[std::string(StatusCodeName(code))]; }

  void Check(bool condition, const std::string& what) {
    if (!condition) {
      errors.push_back(what);
    }
  }

  // Everything simulated: a fixed seed must reproduce it exactly.
  std::string Fingerprint() const {
    uint64_t h = 1469598103934665603ull;
    for (uint64_t v : latency_ns) {
      h = (h ^ v) * 1099511628211ull;
    }
    return std::to_string(attempted) + "/" + std::to_string(ok) + "/" + std::to_string(failed) +
           "/" + std::to_string(sim_window_ns) + "/" + std::to_string(h);
  }
};

// A traced repetition runs 1/8 of a stream, which keeps its trace small.
enum class Length { kFull, kTraced };

uint64_t OpsFor(uint64_t full, Length length) {
  return length == Length::kFull ? full : full / 8;
}

// A run's simulated work is kStreams op streams, each seeded from the run's
// seed. Pooling them gives the tail percentiles enough samples while one
// repetition (one stream) stays short; the pooled results depend on the seed
// alone.
constexpr uint32_t kStreams = 8;

uint64_t StreamSeed(uint64_t seed, uint32_t stream) { return Mix(seed, 1000 + stream); }

// Runs one timed window: `start` issues the load and the simulator runs until
// idle; the per-layer read-out brackets it. Every one of `expected_ops` must
// be issued and then either complete or fail.
template <typename F>
void TimeWindow(Rep& rep, sim::Simulator& simulator, const LayerSources& sources,
                uint64_t expected_ops, F&& start) {
  LayerSnapshot before = TakeSnapshot(sources);
  sim::SimTime sim_start = simulator.Now();
  Clock::time_point w0 = Clock::now();
  start();
  simulator.Run();
  rep.window_s = SecondsSince(w0);
  rep.sim_window_ns = (simulator.Now() - sim_start).nanos();
  rep.layers = LayerDelta(before, TakeSnapshot(sources), rep.attempted);
  rep.Check(rep.attempted == expected_ops, "not every op was issued");
  rep.Check(rep.ok + rep.failed == rep.attempted, "an op neither completed nor failed");
}

// --- KVS workloads ----------------------------------------------------------

struct KvsSpec {
  uint64_t keys;
  uint32_t value_bytes;
  double get_fraction;
  uint32_t clients;
  uint32_t concurrency;
  uint64_t ops_per_client;
  bool small_nand;
  // Log compaction: roll the log once this fraction of it is dead (0 = off),
  // so trimmed generations hand the FTL pages to reclaim.
  double compact_garbage_ratio;
};

// kvs_read: the E4 rig, YCSB-B-like 95% GET over Zipf(0.99) keys.
constexpr KvsSpec kKvsRead{2000, 256, 0.95, 4, 16, 10000, false, 0.0};
// kvs_update: the same rig, YCSB-A-like 50% PUT, so the write path (log
// appends, FTL writes, NAND programs) carries half the ops. Compaction stays
// off: on this rig it aborts about half its passes and stalls ops for up to
// a second (NOTES.md).
constexpr KvsSpec kKvsUpdate{2000, 256, 0.50, 4, 16, 10000, false, 0.0};
// kvs_overwrite_gc: the E9 gc-active rig. 15,000 ops per client carries the
// run well past the point (about 20,000 ops) where FlashFs runs out of
// logical pages, so the length must not be cut below it. Past that point
// compactions abort, and an abort frees the compaction FileClient inside its
// own completion callback (a use-after-free in KvsEngine::AbortCompaction),
// which crashes most runs. NOTES.md has both defects; the workload stays out
// of BENCHMARK.json until they are fixed.
constexpr KvsSpec kKvsOverwrite{32, 1024, 0.10, 4, 8, 15000, true, 0.5};

// The NIC application, wrapped in traced runs so the request's handling on
// the NIC becomes a span under the op's root, and whatever the KVS app opens
// synchronously is adopted by it.
class TracedApp : public nicdev::AppEngine {
 public:
  using RootOf = std::function<sim::SpanId(uint64_t sequence)>;

  TracedApp(std::unique_ptr<kvs::KvsApp> inner, OpTracer* ops, sim::Tracer nic, RootOf root_of)
      : inner_(std::move(inner)), ops_(ops), nic_(std::move(nic)), root_of_(std::move(root_of)) {}

  void Start(std::function<void(Status)> done) override { inner_->Start(std::move(done)); }
  void HandleRequest(std::vector<uint8_t> payload,
                     std::function<void(std::vector<uint8_t>)> respond) override {
    auto request = kvs::KvsRequest::Decode(payload);
    sim::SpanId root = request.ok() ? root_of_(request->sequence) : 0;
    sim::SpanId span = nic_.BeginSpan("KvsRequest", root);
    ops_->Adopt(span, [&] {
      inner_->HandleRequest(std::move(payload),
                            [this, span, respond = std::move(respond)](std::vector<uint8_t> r) {
                              nic_.EndSpan(span);
                              respond(std::move(r));
                            });
    });
  }
  bool HandleDoorbell(DeviceId from, uint64_t value) override {
    return inner_->HandleDoorbell(from, value);
  }
  void OnPeerFailed(DeviceId device) override { inner_->OnPeerFailed(device); }
  void OnPeerPermanentlyFailed(DeviceId device) override {
    inner_->OnPeerPermanentlyFailed(device);
  }

 private:
  std::unique_ptr<kvs::KvsApp> inner_;
  OpTracer* ops_;
  sim::Tracer nic_;
  RootOf root_of_;
};

// Closed-loop KVS clients on the external network, the kvs::LoadClient
// discipline (each client keeps `concurrency` requests outstanding and sends
// the next when one completes), keeping every op's exact latency and status.
class KvsLoad {
 public:
  KvsLoad(core::Machine* machine, net::EndpointId server, const KvsSpec& spec, uint64_t seed,
          uint64_t ops_per_client, OpTracer* ops, Rep* rep)
      : machine_(machine), server_(server), spec_(spec), ops_per_client_(ops_per_client),
        ops_(ops), rep_(rep) {
    for (uint32_t c = 0; c < spec.clients; ++c) {
      kvs::WorkloadConfig workload;
      workload.num_keys = spec.keys;
      workload.get_fraction = spec.get_fraction;
      workload.value_bytes = spec.value_bytes;
      workload.seed = Mix(seed, c);
      auto client = std::make_unique<Client>(Client{kvs::WorkloadGenerator(workload)});
      client->endpoint = machine->network().Attach(
          [this, c](net::EndpointId, std::vector<uint8_t> wire) { OnResponse(c, wire); });
      clients_.push_back(std::move(client));
    }
  }

  void Start() {
    for (uint32_t c = 0; c < clients_.size(); ++c) {
      for (uint32_t i = 0; i < spec_.concurrency; ++i) {
        Issue(c);
      }
    }
  }

  sim::SpanId RootOf(uint64_t sequence) const {
    auto it = in_flight_.find(sequence);
    return it == in_flight_.end() ? 0 : it->second.root;
  }

 private:
  struct Client {
    kvs::WorkloadGenerator generator;
    net::EndpointId endpoint = 0;
    uint64_t issued = 0;
  };
  struct InFlight {
    sim::SimTime sent_at;
    kvs::KvsOp op;
    sim::SpanId root;
  };

  void Issue(uint32_t c) {
    Client& client = *clients_[c];
    if (client.issued >= ops_per_client_) {
      return;
    }
    ++client.issued;
    ++rep_->attempted;
    kvs::KvsRequest request = client.generator.Next();
    // Sequences are per generator; renumber so responses match across clients.
    request.sequence = ++last_sequence_;
    sim::SpanId root = ops_->Begin(request.op == kvs::KvsOp::kGet ? "kvs.get" : "kvs.put");
    in_flight_.emplace(request.sequence,
                       InFlight{machine_->simulator().Now(), request.op, root});
    machine_->network().Send(client.endpoint, server_, request.Encode());
  }

  void OnResponse(uint32_t c, const std::vector<uint8_t>& wire) {
    auto response = kvs::KvsResponse::Decode(wire);
    rep_->Check(response.ok(), "undecodable KVS response");
    if (!response.ok()) {
      return;
    }
    auto it = in_flight_.find(response->sequence);
    rep_->Check(it != in_flight_.end(), "KVS response for an op not in flight");
    if (it == in_flight_.end()) {
      return;
    }
    InFlight op = it->second;
    in_flight_.erase(it);
    bool ok = response->status == StatusCode::kOk;
    if (ok) {
      uint64_t ns = (machine_->simulator().Now() - op.sent_at).nanos();
      rep_->latency_ns.push_back(ns);
      if (op.op == kvs::KvsOp::kGet) {
        rep_->Check(response->value.size() == spec_.value_bytes,
                    "GET returned a value of the wrong length");
        rep_->get_ns.push_back(ns);
      } else {
        rep_->put_ns.push_back(ns);
      }
      ++rep_->ok;
    } else {
      // Every key is preloaded, so a GET miss is a wrong answer, not a failure.
      rep_->Check(response->status != StatusCode::kNotFound, "GET missed a preloaded key");
      rep_->CountFailure(response->status);
      ++rep_->failed;
    }
    ops_->CompleteOp(op.root, ok);
    Issue(c);
  }

  core::Machine* machine_;
  net::EndpointId server_;
  KvsSpec spec_;
  uint64_t ops_per_client_;
  OpTracer* ops_;
  Rep* rep_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unordered_map<uint64_t, InFlight> in_flight_;
  uint64_t last_sequence_ = 0;
};

// Device name -> layer for the trace breakdown.
std::map<std::string, std::string> DeviceLayers(const core::Machine& machine) {
  std::map<std::string, std::string> layers;
  for (const auto& device : machine.devices()) {
    const dev::Device* d = device.get();
    layers[d->name()] = dynamic_cast<const memdev::MemoryController*>(d) ? "memctrl"
                        : dynamic_cast<const ssddev::SmartSsd*>(d)       ? "ssd"
                        : dynamic_cast<const nicdev::SmartNic*>(d)       ? "nic"
                                                                         : "stub";
  }
  return layers;
}

Rep RunKvs(const KvsSpec& spec, uint64_t seed, bool traced, Length length) {
  Rep rep;
  Clock::time_point t0 = Clock::now();
  core::MachineConfig machine_config;
  machine_config.enable_trace = traced;
  auto machine = std::make_unique<core::Machine>(machine_config);
  rep.setup["core.machine_ctor_s"] = SecondsSince(t0);

  Clock::time_point t1 = Clock::now();
  ssddev::SmartSsdConfig ssd_config;
  ssd_config.host_auth_service = false;
  if (spec.small_nand) {
    // 2 dies x 16 blocks x 16 pages x 4 KiB = 2 MiB raw.
    ssd_config.nand.dies = 2;
    ssd_config.nand.blocks_per_die = 16;
    ssd_config.nand.pages_per_block = 16;
  }
  kvs::KvsAppConfig app_config;
  if (spec.compact_garbage_ratio > 0) {
    app_config.engine.compact_garbage_ratio = spec.compact_garbage_ratio;
    app_config.engine.min_compact_bytes = 128 << 10;
  }
  machine->AddMemoryController();
  ssddev::SmartSsd& ssd = machine->AddSmartSsd(ssd_config);
  nicdev::SmartNic& nic = machine->AddSmartNic();
  ssd.ProvisionFile("kv.log", {});
  Pasid pasid = machine->NewApplication("kvs");
  auto app = std::make_unique<kvs::KvsApp>(&nic, pasid, app_config);
  kvs::KvsApp* kvs_app = app.get();
  OpTracer ops(&machine->trace(), &machine->simulator());
  std::unique_ptr<KvsLoad> load;
  if (traced) {
    nic.LoadApp(std::make_unique<TracedApp>(
        std::move(app), &ops, sim::Tracer(&machine->trace(), &machine->simulator(), nic.name()),
        [&load](uint64_t sequence) { return load ? load->RootOf(sequence) : 0; }));
  } else {
    nic.LoadApp(std::move(app));
  }
  rep.setup["core.add_devices_s"] = SecondsSince(t1);

  Clock::time_point t2 = Clock::now();
  machine->Boot();
  rep.setup["core.boot_s"] = SecondsSince(t2);

  Clock::time_point t3 = Clock::now();
  bool preload_ok = true;
  for (uint64_t i = 0; i < spec.keys; ++i) {
    kvs_app->engine().Put(kvs::WorkloadGenerator::KeyFor(i),
                          std::vector<uint8_t>(spec.value_bytes, static_cast<uint8_t>(i)),
                          [&preload_ok](Status s) { preload_ok = preload_ok && s.ok(); });
    machine->RunUntilIdle();
  }
  rep.Check(preload_ok, "preload PUT failed");
  rep.setup["kvs.preload_s"] = SecondsSince(t3);
  rep.setup["core.rss_after_setup_mb"] = PeakRssMb();
  rep.setup_s = SecondsSince(t0);

  uint64_t ops_per_client = OpsFor(spec.ops_per_client, length);
  load = std::make_unique<KvsLoad>(machine.get(), nic.endpoint(), spec, seed, ops_per_client,
                                   &ops, &rep);
  machine->trace().Clear();
  LayerSources sources{&machine->simulator(), machine.get(), nullptr, kvs_app, {}, {}};
  TimeWindow(rep, machine->simulator(), sources, spec.clients * ops_per_client,
             [&] { load->Start(); });
  if (traced) {
    rep.breakdown = ComputeBreakdown(ops.Input(DeviceLayers(*machine)));
  }

  // Every key reads back whole.
  machine->trace().Disable();
  uint64_t read_back = 0;
  for (uint64_t i = 0; i < spec.keys; ++i) {
    kvs_app->engine().Get(kvs::WorkloadGenerator::KeyFor(i),
                          [&](Result<std::vector<uint8_t>> value) {
                            read_back += value.ok() && value->size() == spec.value_bytes;
                          });
  }
  machine->RunUntilIdle();
  rep.Check(read_back == spec.keys, "read-back returned " + std::to_string(read_back) + " of " +
                                        std::to_string(spec.keys) + " values whole");
  return rep;
}

// --- rack workloads ---------------------------------------------------------

constexpr uint32_t kRackDevices = 256;
constexpr uint32_t kRackSegments = 4;
constexpr uint32_t kRackShards = 4;
constexpr uint64_t kRackOpsPerDevice = 200;
constexpr sim::Duration kRackInterarrival = sim::Duration::Micros(400);
constexpr uint64_t kRackBytes = 16 << 10;

// A plain device that issues control-plane ops.
class StubDevice : public dev::Device {
 public:
  StubDevice(DeviceId id, const dev::DeviceContext& context, std::string name)
      : dev::Device(id, std::move(name), context) {}
};

struct Participant {
  core::ControlClient* client;
  DeviceId id;
  Pasid pasid;
};

// Open-loop ops: each device draws Poisson arrivals (mean kRackInterarrival)
// from its own seeded stream. An op is Alloc 16 KiB, Grant it read-only to
// the next device (which sits on the next segment), then Free; its latency
// runs from when it was due to when the Free completes. A Grant failure still
// frees the region, so no op leaks memory.
class RackLoad {
 public:
  RackLoad(sim::Simulator* simulator, std::vector<Participant> devices, uint64_t seed,
           uint64_t ops_per_device, OpTracer* ops, Rep* rep)
      : simulator_(simulator), devices_(std::move(devices)), ops_per_device_(ops_per_device),
        ops_(ops), rep_(rep) {
    for (size_t i = 0; i < devices_.size(); ++i) {
      rngs_.emplace_back(Mix(seed, i));
    }
  }

  void Start() {
    remaining_.assign(devices_.size(), ops_per_device_);
    for (size_t i = 0; i < devices_.size(); ++i) {
      ScheduleArrival(i);
    }
  }

 private:
  struct Op {
    size_t device;
    sim::SimTime due;
    sim::SpanId root;
    VirtAddr vaddr;
    bool ok = true;
  };

  void ScheduleArrival(size_t i) {
    if (remaining_[i] == 0) {
      return;
    }
    --remaining_[i];
    double gap = rngs_[i].NextExponential(static_cast<double>(kRackInterarrival.nanos()));
    simulator_->Schedule(sim::Duration::Nanos(static_cast<uint64_t>(gap) + 1), [this, i] {
      ++rep_->attempted;
      auto op = std::make_shared<Op>(Op{i, simulator_->Now(), ops_->Begin("rack.op"), {}});
      Alloc(op);
      ScheduleArrival(i);
    });
  }

  // Each call into the control plane runs under a step span of the op.
  void Alloc(std::shared_ptr<Op> op) {
    const Participant& p = devices_[op->device];
    sim::SpanId step = ops_->Begin("alloc", op->root);
    ops_->Adopt(step, [&] {
      p.client->Alloc(p.pasid, kRackBytes, [this, op, step](Result<VirtAddr> r) {
        ops_->End(step);
        if (!r.ok()) {
          Finish(op, false, r.status());
          return;
        }
        op->vaddr = *r;
        Grant(op);
      });
    });
  }

  void Grant(std::shared_ptr<Op> op) {
    const Participant& p = devices_[op->device];
    DeviceId grantee = devices_[(op->device + 1) % devices_.size()].id;
    sim::SpanId step = ops_->Begin("grant", op->root);
    ops_->Adopt(step, [&] {
      p.client->Grant(p.pasid, op->vaddr, kRackBytes, grantee, Access::kRead,
                      [this, op, step](Result<void> r) {
                        ops_->End(step);
                        if (!r.ok()) {
                          op->ok = false;
                          rep_->CountFailure(r.status().code());
                        }
                        Free(op);
                      });
    });
  }

  void Free(std::shared_ptr<Op> op) {
    const Participant& p = devices_[op->device];
    sim::SpanId step = ops_->Begin("free", op->root);
    ops_->Adopt(step, [&] {
      p.client->Free(p.pasid, op->vaddr, kRackBytes, [this, op, step](Result<void> r) {
        ops_->End(step);
        Finish(op, op->ok && r.ok(), r.status());
      });
    });
  }

  void Finish(const std::shared_ptr<Op>& op, bool ok, const Status& status) {
    if (ok) {
      ++rep_->ok;
      rep_->latency_ns.push_back((simulator_->Now() - op->due).nanos());
    } else {
      ++rep_->failed;
      if (!status.ok()) {
        rep_->CountFailure(status.code());
      }
    }
    ops_->CompleteOp(op->root, ok);
  }

  sim::Simulator* simulator_;
  std::vector<Participant> devices_;
  uint64_t ops_per_device_;
  OpTracer* ops_;
  Rep* rep_;
  std::vector<sim::Rng> rngs_;
  std::vector<uint64_t> remaining_;
};

Rep RunRack(uint64_t seed, bool traced, Length length) {
  Rep rep;
  Clock::time_point t0 = Clock::now();
  core::MachineConfig config;
  config.enable_trace = traced;
  config.topology.segments = kRackSegments;
  config.topology.memory_shards = kRackShards;
  auto machine = std::make_unique<core::Machine>(config);
  rep.setup["core.machine_ctor_s"] = SecondsSince(t0);

  Clock::time_point t1 = Clock::now();
  std::vector<StubDevice*> stubs;
  for (uint32_t i = 0; i < kRackDevices; ++i) {
    stubs.push_back(
        &machine->EmplaceOn<StubDevice>(i % kRackSegments, "stub" + std::to_string(i)));
  }
  rep.setup["core.add_devices_s"] = SecondsSince(t1);

  Clock::time_point t2 = Clock::now();
  machine->Boot();
  rep.setup["core.boot_s"] = SecondsSince(t2);
  std::vector<std::unique_ptr<core::ShardedControlClient>> clients;
  std::vector<Participant> participants;
  LayerSources sources{&machine->simulator(), machine.get(), nullptr, nullptr, {}, {}};
  for (uint32_t i = 0; i < kRackDevices; ++i) {
    clients.push_back(std::make_unique<core::ShardedControlClient>(
        stubs[i], machine->shard_infos(), core::AllocationPolicy::kHomeNode));
    participants.push_back(
        Participant{clients.back().get(), stubs[i]->id(), Pasid(i + 1)});
    sources.sharded_clients.push_back(clients.back().get());
  }
  rep.setup["core.rss_after_setup_mb"] = PeakRssMb();
  rep.setup_s = SecondsSince(t0);

  OpTracer ops(&machine->trace(), &machine->simulator());
  uint64_t ops_per_device = OpsFor(kRackOpsPerDevice, length);
  RackLoad load(&machine->simulator(), std::move(participants), seed, ops_per_device, &ops, &rep);
  machine->trace().Clear();
  TimeWindow(rep, machine->simulator(), sources, kRackDevices * ops_per_device,
             [&] { load.Start(); });
  if (traced) {
    rep.breakdown = ComputeBreakdown(ops.Input(DeviceLayers(*machine)));
  }

  // Every frame is back on its shard's free list, and no device holds a grant.
  for (const memdev::MemoryController* shard : machine->shard_controllers()) {
    rep.Check(shard->allocator().free_frames() == shard->allocator().total_frames(),
              shard->name() + " did not get every frame back");
    for (const StubDevice* stub : stubs) {
      rep.Check(shard->GrantsHeldBy(stub->id()) == 0,
                stub->name() + " still holds a grant on " + shard->name());
    }
  }
  return rep;
}

Rep RunRackCentral(uint64_t seed, bool traced, Length length) {
  Rep rep;
  Clock::time_point t0 = Clock::now();
  sim::Simulator simulator;
  sim::TraceLog trace;
  if (traced) {
    trace.Enable();
  }
  mem::PhysicalMemory memory(core::MachineConfig{}.memory_bytes);
  rep.setup["core.machine_ctor_s"] = SecondsSince(t0);

  Clock::time_point t1 = Clock::now();
  baseline::CentralKernelConfig kernel_config;
  kernel_config.cores = 4;
  kernel_config.cross_segment_interrupt_extra = sim::Duration::Nanos(400);
  baseline::CentralKernel kernel(&simulator, &memory, kernel_config, &trace);
  rep.setup["baseline.kernel_ctor_s"] = SecondsSince(t1);

  Clock::time_point t2 = Clock::now();
  std::vector<std::unique_ptr<iommu::Iommu>> iommus;
  std::vector<std::unique_ptr<core::KernelControlClient>> clients;
  std::vector<Participant> participants;
  LayerSources sources{&simulator, nullptr, &kernel, nullptr, {}, {}};
  for (uint32_t i = 0; i < kRackDevices; ++i) {
    // The same placement as rack_churn: device i on segment i % 4.
    uint32_t segment = i % kRackSegments;
    uint32_t local = i / kRackSegments + 1;
    DeviceId id = segment == 0 ? DeviceId(local) : MakeSegmentDeviceId(segment, local);
    iommus.push_back(std::make_unique<iommu::Iommu>(id));
    kernel.RegisterDevice(id, iommus.back().get());
    sources.extra_iommus.push_back(iommus.back().get());
    clients.push_back(std::make_unique<core::KernelControlClient>(&kernel, id));
    participants.push_back(Participant{clients.back().get(), id, Pasid(i + 1)});
  }
  rep.setup["core.add_devices_s"] = SecondsSince(t2);
  rep.setup["core.rss_after_setup_mb"] = PeakRssMb();
  rep.setup_s = SecondsSince(t0);

  OpTracer ops(&trace, &simulator);
  uint64_t ops_per_device = OpsFor(kRackOpsPerDevice, length);
  RackLoad load(&simulator, std::move(participants), seed, ops_per_device, &ops, &rep);
  TimeWindow(rep, simulator, sources, kRackDevices * ops_per_device, [&] { load.Start(); });
  if (traced) {
    rep.breakdown = ComputeBreakdown(ops.Input({}));
  }

  // No PASID keeps memory allocated.
  for (uint32_t i = 0; i < kRackDevices; ++i) {
    rep.Check(kernel.AllocatedBytes(Pasid(i + 1)) == 0,
              "pasid " + std::to_string(i + 1) + " still has memory allocated");
  }
  return rep;
}

// --- workloads and the run ----------------------------------------------------

struct Workload {
  const char* name;
  Rep (*run)(uint64_t seed, bool traced, Length length);
};

const Workload kWorkloads[] = {
    {"kvs_read", [](uint64_t s, bool t, Length l) { return RunKvs(kKvsRead, s, t, l); }},
    {"kvs_update", [](uint64_t s, bool t, Length l) { return RunKvs(kKvsUpdate, s, t, l); }},
    {"kvs_overwrite_gc",
     [](uint64_t s, bool t, Length l) { return RunKvs(kKvsOverwrite, s, t, l); }},
    {"rack_churn", RunRack},
    {"rack_churn_central", RunRackCentral},
};

// The layers the trace breakdown reports; anything else lands in "other".
const char* const kTraceLayers[] = {"bus",    "memctrl",  "ssd",  "nic",  "stub",
                                    "fabric", "kernel", "untraced", "other"};

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// The simulated end-to-end metrics of one repetition.
MetricMap SimMetrics(const Rep& rep) {
  MetricMap m;
  m["sim_ops_per_s"] =
      rep.sim_window_ns == 0 ? 0.0 : static_cast<double>(rep.ok) * 1e9 / rep.sim_window_ns;
  m["sim_p50_us"] = Us(Percentile(rep.latency_ns, 0.50));
  m["sim_p99_us"] = Us(Percentile(rep.latency_ns, 0.99));
  m["sim_p999_us"] = Us(Percentile(rep.latency_ns, 0.999));
  m["ok_frac"] = rep.attempted == 0 ? 0.0 : static_cast<double>(rep.ok) / rep.attempted;
  return m;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, uint64_t> failures_by_status;

  void Add(const Rep& rep) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const auto& e : rep.errors) {
      if (std::find(errors.begin(), errors.end(), e) == errors.end()) {
        errors.push_back(e);
      }
    }
    for (const auto& [code, n] : rep.failures_by_status) {
      failures_by_status[code] += n;
    }
  }
};

// `host` holds the raw host timings behind the metrics, for the record.
void Print(const std::string& workload, uint64_t seed, bool trace, size_t reps,
           const Rep& reference, const Totals& totals, const MetricMap& metrics,
           const MetricMap& host) {
  std::string out = "{\"workload\":" + JsonString(workload) +
                    ",\"seed\":" + std::to_string(seed) + ",\"trace\":" + (trace ? "1" : "0") +
                    ",\"reps\":" + std::to_string(reps) +
                    ",\"sim_ops\":" + std::to_string(reference.attempted) +
                    ",\"latency_samples\":" + std::to_string(reference.latency_ns.size()) +
                    ",\"attempted\":" + std::to_string(totals.attempted) +
                    ",\"failed\":" + std::to_string(totals.failed) +
                    ",\"correct\":" + (totals.errors.empty() ? "true" : "false") +
                    ",\"errors\":[";
  for (size_t i = 0; i < totals.errors.size(); ++i) {
    out += (i ? "," : "") + JsonString(totals.errors[i]);
  }
  out += "],\"failures_by_status\":{";
  bool first = true;
  for (const auto& [code, n] : totals.failures_by_status) {
    out += (first ? "" : ",") + JsonString(code) + ":" + std::to_string(n);
    first = false;
  }
  out += "},\"env\":{\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) + "},\"host\":{";
  first = true;
  for (const auto& [name, value] : host) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  out += "},\"metrics\":{";
  first = true;
  for (const auto& [name, value] : metrics) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
}

int RunWorkload(const Workload& workload, uint64_t seed, double seconds, bool trace) {
  Clock::time_point start = Clock::now();
  Totals totals;
  MetricMap metrics;
  auto check_reproduced = [&](const Rep& rep, const std::string& reference) {
    if (rep.Fingerprint() != reference) {
      totals.errors.push_back("a repetition with the same seed gave different simulated results");
    }
  };

  if (!trace) {
    // Repetition r runs stream r % kStreams; the first pass over the streams
    // gives the simulated metrics, later passes must reproduce it exactly. A
    // run ends on a whole pass, so every stream weighs the same in the host
    // medians. Each repetition's host cost is its window's ns per op over the
    // mean ns of the reference events timed just before and just after it.
    Rep pooled;
    std::vector<std::string> fingerprints;
    std::vector<double> setup_s;
    std::vector<double> ns_per_op;
    std::vector<double> ref_event_ns{ReferenceEventNs()};
    std::vector<double> ref_events_per_op;
    do {
      uint32_t stream = static_cast<uint32_t>(setup_s.size() % kStreams);
      Rep rep = workload.run(StreamSeed(seed, stream), false, Length::kFull);
      ref_event_ns.push_back(ReferenceEventNs());
      totals.Add(rep);
      setup_s.push_back(rep.setup_s);
      ns_per_op.push_back(rep.window_s * 1e9 / static_cast<double>(rep.attempted));
      double ref_ns = (ref_event_ns[ref_event_ns.size() - 2] + ref_event_ns.back()) / 2;
      ref_events_per_op.push_back(ns_per_op.back() / ref_ns);
      if (fingerprints.size() < kStreams) {
        fingerprints.push_back(rep.Fingerprint());
        pooled.Merge(rep);
      } else {
        check_reproduced(rep, fingerprints[stream]);
      }
    } while (setup_s.size() % kStreams != 0 || SecondsSince(start) < seconds);
    pooled.Finalize();
    metrics = SimMetrics(pooled);
    metrics["setup_s"] = Median(setup_s);
    metrics["host_ref_events_per_op"] = Median(ref_events_per_op);
    metrics["host_peak_rss_mb"] = PeakRssMb();
    Print(workload.name, seed, trace, setup_s.size(), pooled, totals, metrics,
          {{"ns_per_op", Median(ns_per_op)}, {"ref_event_ns", Median(ref_event_ns)}});
    return 0;
  }

  // Per-layer read-out of one full untraced repetition.
  Rep full = workload.run(StreamSeed(seed, 0), false, Length::kFull);
  full.Finalize();
  totals.Add(full);
  metrics = full.layers;
  for (const auto& [name, value] : full.setup) {
    metrics[name] = value;
  }
  for (const char* name : {"core.machine_ctor_s", "core.add_devices_s", "core.boot_s",
                           "core.rss_after_setup_mb", "baseline.kernel_ctor_s", "kvs.preload_s"}) {
    metrics.emplace(name, 0.0);  // set-up steps the workload does not have read 0
  }
  double events_per_op = full.layers["sim.events_per_op"];
  metrics["sim.host_ns_per_event"] =
      events_per_op == 0 ? 0.0 : full.window_s * 1e9 / full.attempted / events_per_op;
  metrics["kvs.get_p99_us"] = Us(Percentile(full.get_ns, 0.99));
  metrics["kvs.put_p99_us"] = Us(Percentile(full.put_ns, 0.99));
  metrics["failed_frac"] =
      static_cast<double>(full.failed) / static_cast<double>(full.attempted);
  for (const auto& [name, value] : TimeCodec(0.2)) {
    metrics[name] = value;
  }

  // Traced repetitions, each paired with an untraced one of the same length.
  std::vector<double> traced_ns;
  std::vector<double> untraced_ns;
  std::string plain_fingerprint;
  std::optional<Breakdown> breakdown;
  do {
    Rep plain = workload.run(StreamSeed(seed, 0), false, Length::kTraced);
    Rep traced = workload.run(StreamSeed(seed, 0), true, Length::kTraced);
    totals.Add(plain);
    totals.Add(traced);
    untraced_ns.push_back(plain.window_s * 1e9 / static_cast<double>(plain.attempted));
    traced_ns.push_back(traced.window_s * 1e9 / static_cast<double>(traced.attempted));
    // Tracing must observe, never perturb, the simulation.
    check_reproduced(traced, plain.Fingerprint());
    if (breakdown) {
      check_reproduced(plain, plain_fingerprint);
    } else {
      plain_fingerprint = plain.Fingerprint();
      breakdown = std::move(traced.breakdown);
    }
  } while (SecondsSince(start) < seconds);
  metrics["trace.overhead_frac"] = Median(traced_ns) / Median(untraced_ns) - 1.0;

  if (!breakdown->error.empty()) {
    totals.errors.push_back("trace breakdown: " + breakdown->error);
  }
  double ops = breakdown->ops == 0 ? 1.0 : static_cast<double>(breakdown->ops);
  for (const char* layer : kTraceLayers) {
    metrics[std::string("trace.self_us.") + layer] = 0.0;
  }
  for (const auto& [layer, ns] : breakdown->self_ns) {
    std::string name = "trace.self_us." + layer;
    metrics[metrics.contains(name) ? name : "trace.self_us.other"] += Us(ns) / ops;
  }
  metrics["trace.op_us"] = Us(breakdown->root_ns) / ops;
  metrics["trace.unlinked_spans_per_op"] = static_cast<double>(breakdown->unlinked_spans) / ops;
  Print(workload.name, seed, trace, traced_ns.size(), full, totals, metrics, {});
  return 0;
}

// --- self-test ------------------------------------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  // Percentiles and failure accounting on a tiny synthetic run: 1,000
  // successful ops of 1..1000 us and 10 failed ones.
  Rep rep;
  for (uint64_t i = 1000; i >= 1; --i) {
    rep.latency_ns.push_back(i * 1000);
  }
  rep.ok = 1000;
  rep.failed = 10;
  rep.attempted = 1010;
  rep.sim_window_ns = 2'000'000'000;
  rep.Finalize();
  MetricMap m = SimMetrics(rep);
  expect(m["sim_p50_us"] == 500.0, "p50 of 1..1000 is 500");
  expect(m["sim_p99_us"] == 990.0, "p99 of 1..1000 is 990");
  expect(m["sim_p999_us"] == 999.0, "p999 of 1..1000 is 999");
  expect(m["sim_ops_per_s"] == 500.0, "1000 ok ops in 2 simulated seconds");
  expect(std::abs(m["ok_frac"] - 1000.0 / 1010.0) < 1e-15, "ok_frac counts failures");
  expect(Percentile({}, 0.5) == 0, "empty sample set");
  expect(Percentile({7}, 0.999) == 7, "single sample");

  ReferenceResult first = RunReference(kReferenceKeys[1]);
  ReferenceResult second = RunReference(kReferenceKeys[1]);
  expect(first.checksum == second.checksum, "the reference loop does fixed work");
  expect(first.ns_per_event > 0 && second.ns_per_event > 0, "the reference loop is timed");

  // Self time on a synthetic trace. Root [0,100] has a step [10,90] with a
  // bus span [20,50] under it. Inside the step's call (records 3..4) a
  // parentless kernel span [40,80] opens, with a fabric child [60,70], and a
  // message (flow 9) is sent; its receiver, memory span [85,130], joins the
  // step and is clipped to the root. A parentless span outside any call
  // stays unlinked.
  std::vector<sim::TraceRecord> records;
  auto record = [&](uint64_t t, const char* comp, sim::TraceKind kind, sim::SpanId id,
                    sim::SpanId parent, sim::FlowId flow) {
    records.push_back(
        sim::TraceRecord{sim::SimTime::FromNanos(t), comp, "x", "", kind, id, parent, flow});
  };
  using K = sim::TraceKind;
  record(0, kBenchComponent, K::kSpanBegin, 1, 0, 0);
  record(10, kBenchComponent, K::kSpanBegin, 2, 1, 0);
  record(20, "bus", K::kSpanBegin, 3, 2, 0);
  record(40, "kern", K::kSpanBegin, 4, 0, 0);
  record(40, "stub0", K::kFlowSend, 0, 0, 9);
  record(50, "bus", K::kSpanEnd, 3, 0, 0);
  record(60, "fabric", K::kSpanBegin, 5, 4, 0);
  record(70, "fabric", K::kSpanEnd, 5, 0, 0);
  record(80, "kern", K::kSpanEnd, 4, 0, 0);
  record(85, "mem", K::kSpanBegin, 7, 0, 0);
  record(85, "mem", K::kFlowReceive, 7, 0, 9);
  record(90, kBenchComponent, K::kSpanEnd, 2, 0, 0);
  record(100, kBenchComponent, K::kSpanEnd, 1, 0, 0);
  record(101, "orphan", K::kSpanBegin, 6, 0, 0);
  record(103, "orphan", K::kSpanEnd, 6, 0, 0);
  record(130, "mem", K::kSpanEnd, 7, 0, 0);
  BreakdownInput input{
      &records, {AdoptionRange{3, 5, 2}}, {1}, {{"kern", "kernel"}, {"mem", "memctrl"}}};
  Breakdown b = ComputeBreakdown(input);
  expect(b.error.empty(), "synthetic breakdown sums to the root");
  expect(b.self_ns["untraced"] == 25, "root and step: [0,20) and [80,85)");
  expect(b.self_ns["bus"] == 20, "bus: [20,40), until the later-opened kernel span");
  expect(b.self_ns["kernel"] == 30, "adopted kernel span: [40,60) and [70,80)");
  expect(b.self_ns["fabric"] == 10, "fabric child of the adopted span: [60,70)");
  expect(b.self_ns["memctrl"] == 15, "flow-linked receiver: [85,100), clipped to the root");
  expect(b.root_ns == 100 && b.ops == 1, "one op of 100 ns");
  expect(b.unlinked_spans == 1, "one unlinked span");
  std::fprintf(stderr, "self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lastcpu::perfbench

int main(int argc, char** argv) {
  using namespace lastcpu::perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      return SelfTest();
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      return RunWorkload(w, seed, seconds, trace != 0);
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
