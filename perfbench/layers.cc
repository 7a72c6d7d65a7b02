#include "perfbench/layers.h"

#include <chrono>
#include <string_view>

#include "src/baseline/central_kernel.h"
#include "src/core/control_plane.h"
#include "src/core/machine.h"
#include "src/iommu/iommu.h"
#include "src/kvs/kvs_app.h"
#include "src/memdev/memory_controller.h"
#include "src/proto/codec.h"
#include "src/ssddev/smart_ssd.h"

namespace lastcpu::perfbench {
namespace {

// Registry reads that never create an entry, so the read-out cannot change
// what the program itself would later report.
uint64_t CounterOf(const sim::StatsRegistry& stats, std::string_view name) {
  auto it = stats.counters().find(name);
  return it == stats.counters().end() ? 0 : it->second.value();
}

sim::Histogram HistogramOf(const sim::StatsRegistry& stats, std::string_view name) {
  auto it = stats.histograms().find(name);
  return it == stats.histograms().end() ? sim::Histogram{} : it->second;
}

uint64_t CountersEndingWith(const sim::StatsRegistry& stats, std::string_view suffix) {
  uint64_t total = 0;
  for (const auto& [name, counter] : stats.counters()) {
    if (name.size() >= suffix.size() &&
        std::string_view(name).substr(name.size() - suffix.size()) == suffix) {
      total += counter.value();
    }
  }
  return total;
}

void AddIommu(const iommu::Iommu& mmu, LayerSnapshot& s) {
  s.iommu_translations += mmu.translations();
  s.iommu_faults += mmu.faults();
  s.iotlb_hits += mmu.tlb().hits();
  s.iotlb_misses += mmu.tlb().misses();
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double P99Us(const sim::Histogram& after, const sim::Histogram& before) {
  return static_cast<double>(after.DeltaSince(before).p99()) / 1e3;
}

}  // namespace

LayerSnapshot TakeSnapshot(const LayerSources& sources) {
  LayerSnapshot s;
  if (sources.simulator != nullptr) {
    s.events = sources.simulator->events_executed();
  }
  for (const auto* client : sources.sharded_clients) {
    s.client_spills += client->spills();
  }
  for (const auto* mmu : sources.extra_iommus) {
    AddIommu(*mmu, s);
  }
  if (sources.machine != nullptr) {
    core::Machine& m = *sources.machine;
    s.net_datagrams = CounterOf(m.network().stats(), "datagrams");

    const sim::StatsRegistry& fabric = m.fabric().stats();
    s.fabric_doorbells = CounterOf(fabric, "doorbells");
    s.fabric_dmas = CounterOf(fabric, "dma_reads") + CounterOf(fabric, "dma_writes");
    s.fabric_dma_bytes =
        CounterOf(fabric, "dma_bytes_read") + CounterOf(fabric, "dma_bytes_written");
    s.fabric_dma_read_latency = HistogramOf(fabric, "dma_read_latency");
    s.fabric_dma_write_latency = HistogramOf(fabric, "dma_write_latency");

    const sim::StatsRegistry& bus = m.bus().stats();
    s.bus_messages = CounterOf(bus, "messages_sent");
    s.bus_bytes = CounterOf(bus, "bytes_sent");
    s.bus_wire_latency = HistogramOf(bus, "wire_latency");
    s.bus_table_update_latency = HistogramOf(bus, "table_update_latency");
    for (const auto& segment : m.bus().segment_counters()) {
      s.bus_cross_segment += segment.routed_out;
    }

    for (const auto& device : m.devices()) {
      const sim::StatsRegistry& stats = device->stats();
      AddIommu(device->iommu(), s);
      s.dev_rpc_retries += CounterOf(stats, "request_retries");
      s.dev_rpc_timeouts += CounterOf(stats, "request_timeouts");
      s.file_client_requests += CounterOf(stats, "file_client_requests");
      if (dynamic_cast<memdev::MemoryController*>(device.get()) != nullptr) {
        s.memdev_allocations += CounterOf(stats, "allocations");
        s.memdev_grants += CounterOf(stats, "grants");
        s.memdev_rejections += CountersEndingWith(stats, "_rejections");
      }
      if (auto* ssd = dynamic_cast<ssddev::SmartSsd*>(device.get())) {
        const ssddev::Ftl& ftl = ssd->ftl();
        s.ftl_cache_hits += ftl.cache_hits();
        s.ftl_cache_misses += ftl.cache_misses();
        s.ftl_host_writes += ftl.host_writes();
        s.ftl_nand_writes += ftl.nand_writes();
        s.ftl_gc_runs += ftl.gc_runs();
        s.ftl_gc_relocated_pages += ftl.gc_relocated_pages();
        s.ftl_write_stalls += ftl.write_stalls();
        s.fs_free_pages += ssd->fs().free_pages();
      }
    }
  }
  if (sources.kvs_app != nullptr) {
    const sim::StatsRegistry& engine = sources.kvs_app->engine().stats();
    s.kvs_compactions = CounterOf(engine, "compactions");
    s.kvs_compactions_aborted = CounterOf(engine, "compactions_aborted");
  }
  if (sources.kernel != nullptr) {
    s.kernel_op_latency = sources.kernel->op_latency();
    s.kernel_queue_wait = HistogramOf(sources.kernel->stats(), "queue_wait");
    s.kernel_cross_segment_interrupts =
        CounterOf(sources.kernel->stats(), "cross_segment_interrupts");
  }
  return s;
}

MetricMap LayerDelta(const LayerSnapshot& b, const LayerSnapshot& a, uint64_t ops) {
  auto per_op = [ops](uint64_t after, uint64_t before) { return Ratio(after - before, ops); };
  MetricMap m;
  m["sim.events_per_op"] = per_op(a.events, b.events);
  m["core.client_spills"] = static_cast<double>(a.client_spills - b.client_spills);
  m["kvs.compactions"] = static_cast<double>(a.kvs_compactions - b.kvs_compactions);
  m["kvs.compactions_aborted"] =
      static_cast<double>(a.kvs_compactions_aborted - b.kvs_compactions_aborted);
  m["net.datagrams_per_op"] = per_op(a.net_datagrams, b.net_datagrams);
  m["ssddev.file_client_requests_per_op"] =
      per_op(a.file_client_requests, b.file_client_requests);
  uint64_t hits = a.ftl_cache_hits - b.ftl_cache_hits;
  m["ssddev.ftl_cache_hit_rate"] = Ratio(hits, hits + a.ftl_cache_misses - b.ftl_cache_misses);
  m["ssddev.ftl_waf"] =
      Ratio(a.ftl_nand_writes - b.ftl_nand_writes, a.ftl_host_writes - b.ftl_host_writes);
  m["ssddev.ftl_gc_runs"] = static_cast<double>(a.ftl_gc_runs - b.ftl_gc_runs);
  m["ssddev.ftl_gc_relocated_pages"] =
      static_cast<double>(a.ftl_gc_relocated_pages - b.ftl_gc_relocated_pages);
  m["ssddev.ftl_write_stalls"] = static_cast<double>(a.ftl_write_stalls - b.ftl_write_stalls);
  m["ssddev.nand_writes_per_op"] = per_op(a.ftl_nand_writes, b.ftl_nand_writes);
  m["ssddev.fs_free_pages_end"] = static_cast<double>(a.fs_free_pages);
  m["fabric.doorbells_per_op"] = per_op(a.fabric_doorbells, b.fabric_doorbells);
  m["fabric.dma_per_op"] = per_op(a.fabric_dmas, b.fabric_dmas);
  m["fabric.dma_bytes_per_op"] = per_op(a.fabric_dma_bytes, b.fabric_dma_bytes);
  m["fabric.dma_read_p99_us"] = P99Us(a.fabric_dma_read_latency, b.fabric_dma_read_latency);
  m["fabric.dma_write_p99_us"] = P99Us(a.fabric_dma_write_latency, b.fabric_dma_write_latency);
  m["iommu.translations_per_op"] = per_op(a.iommu_translations, b.iommu_translations);
  uint64_t tlb_hits = a.iotlb_hits - b.iotlb_hits;
  m["iommu.tlb_hit_rate"] = Ratio(tlb_hits, tlb_hits + a.iotlb_misses - b.iotlb_misses);
  m["iommu.faults"] = static_cast<double>(a.iommu_faults - b.iommu_faults);
  uint64_t messages = a.bus_messages - b.bus_messages;
  m["bus.msgs_per_op"] = Ratio(messages, ops);
  m["bus.bytes_per_op"] = per_op(a.bus_bytes, b.bus_bytes);
  m["bus.wire_p99_us"] = P99Us(a.bus_wire_latency, b.bus_wire_latency);
  m["bus.table_update_p99_us"] = P99Us(a.bus_table_update_latency, b.bus_table_update_latency);
  m["bus.cross_segment_frac"] = Ratio(a.bus_cross_segment - b.bus_cross_segment, messages);
  m["dev.rpc_retries"] = static_cast<double>(a.dev_rpc_retries - b.dev_rpc_retries);
  m["dev.rpc_timeouts"] = static_cast<double>(a.dev_rpc_timeouts - b.dev_rpc_timeouts);
  m["memdev.allocations"] = static_cast<double>(a.memdev_allocations - b.memdev_allocations);
  m["memdev.grants"] = static_cast<double>(a.memdev_grants - b.memdev_grants);
  m["memdev.rejections"] = static_cast<double>(a.memdev_rejections - b.memdev_rejections);
  m["baseline.op_p99_us"] = P99Us(a.kernel_op_latency, b.kernel_op_latency);
  m["baseline.queue_wait_p99_us"] = P99Us(a.kernel_queue_wait, b.kernel_queue_wait);
  m["baseline.cross_segment_interrupts_per_op"] =
      per_op(a.kernel_cross_segment_interrupts, b.kernel_cross_segment_interrupts);
  return m;
}

MetricMap TimeCodec(double min_seconds) {
  // One of each message an alloc/grant/free op puts on the bus, with the
  // field sizes rack_churn uses (16 KiB regions, four-page map directives).
  const DeviceId owner = MakeSegmentDeviceId(1, 7);
  const DeviceId shard = MakeSegmentDeviceId(1, 65);
  const VirtAddr vaddr(0x0000'4000'0001'0000ull);
  const Pasid pasid(7);
  constexpr uint64_t kBytes = 16 << 10;
  std::vector<proto::MapEntry> entries;
  for (uint64_t i = 0; i < kBytes / kPageSize; ++i) {
    entries.push_back(proto::MapEntry{vaddr.raw / kPageSize + i, 4096 + i, Access::kReadWrite});
  }
  std::vector<proto::Message> messages = {
      proto::MakeRequest(owner, shard, RequestId(11),
                         proto::MemAllocRequest{pasid, kBytes, VirtAddr(), Access::kReadWrite}),
      proto::Message{shard, owner, RequestId(11), proto::MemAllocResponse{vaddr, kBytes, 4096}},
      proto::MakeRequest(shard, kBusDevice, RequestId(),
                         proto::MapDirective{owner, pasid, entries, false, 1}),
      proto::MakeRequest(owner, kBusDevice, RequestId(12),
                         proto::GrantRequest{pasid, vaddr, kBytes, MakeSegmentDeviceId(2, 7),
                                             Access::kRead}),
      proto::Message{kBusDevice, owner, RequestId(12), proto::GrantResponse{}},
      proto::MakeRequest(owner, kBusDevice, RequestId(13),
                         proto::MemFreeRequest{pasid, vaddr, kBytes}),
      proto::Message{shard, owner, RequestId(13), proto::MemFreeResponse{}},
  };
  std::vector<std::vector<uint8_t>> wires;
  for (const auto& message : messages) {
    wires.push_back(proto::EncodeMessage(message));
  }

  using Clock = std::chrono::steady_clock;
  auto time_pass = [&](auto&& body) {
    uint64_t calls = 0;
    uint64_t sink = 0;
    Clock::time_point start = Clock::now();
    double elapsed = 0;
    do {
      for (size_t i = 0; i < messages.size(); ++i) {
        sink += body(i);
      }
      calls += messages.size();
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < min_seconds);
    // Consumed so the timed calls cannot be discarded as dead code.
    volatile uint64_t keep = sink;
    (void)keep;
    return elapsed * 1e9 / static_cast<double>(calls);
  };
  MetricMap m;
  m["proto.encode_ns_per_msg"] =
      time_pass([&](size_t i) { return proto::EncodeMessage(messages[i]).size(); });
  m["proto.encoded_size_ns_per_msg"] =
      time_pass([&](size_t i) { return proto::EncodedSize(messages[i]); });
  m["proto.decode_ns_per_msg"] = time_pass([&](size_t i) {
    auto decoded = proto::DecodeMessage(wires[i]);
    return decoded.ok() ? static_cast<uint64_t>(decoded->type()) + 1 : 0;
  });
  return m;
}

}  // namespace lastcpu::perfbench
