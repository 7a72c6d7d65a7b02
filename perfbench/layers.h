// Per-layer read-out for the repository benchmark.
//
// Every layer is measured from outside, through public accessors only: a
// LayerSnapshot copies each counter and histogram the benchmark reports, the
// workload takes one snapshot before and one after its timed window, and
// LayerDelta turns the pair into the named per-layer metrics. All four
// workloads go through this one path, so a metric means the same thing on
// every workload (and reads 0 where the workload never touches the layer).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/stats.h"

namespace lastcpu::baseline {
class CentralKernel;
}
namespace lastcpu::core {
class Machine;
class ShardedControlClient;
}
namespace lastcpu::iommu {
class Iommu;
}
namespace lastcpu::kvs {
class KvsApp;
}
namespace lastcpu::sim {
class Simulator;
}

namespace lastcpu::perfbench {

// Named metric values, in the units BENCHMARK.json declares for them.
using MetricMap = std::map<std::string, double>;

// What a workload wires up for the read-out. Any pointer may be null and
// any list empty: the matching metrics then read 0.
struct LayerSources {
  sim::Simulator* simulator = nullptr;
  core::Machine* machine = nullptr;
  baseline::CentralKernel* kernel = nullptr;
  kvs::KvsApp* kvs_app = nullptr;
  // IOMMUs the machine does not own (the centralized baseline's devices).
  std::vector<const iommu::Iommu*> extra_iommus;
  std::vector<const core::ShardedControlClient*> sharded_clients;
};

// A frozen copy of every accessor the read-out reports.
struct LayerSnapshot {
  uint64_t events = 0;
  uint64_t client_spills = 0;
  uint64_t kvs_compactions = 0;
  uint64_t kvs_compactions_aborted = 0;
  uint64_t net_datagrams = 0;
  uint64_t file_client_requests = 0;
  uint64_t ftl_cache_hits = 0;
  uint64_t ftl_cache_misses = 0;
  uint64_t ftl_host_writes = 0;
  uint64_t ftl_nand_writes = 0;
  uint64_t ftl_gc_runs = 0;
  uint64_t ftl_gc_relocated_pages = 0;
  uint64_t ftl_write_stalls = 0;
  uint64_t fs_free_pages = 0;
  uint64_t fabric_doorbells = 0;
  uint64_t fabric_dmas = 0;
  uint64_t fabric_dma_bytes = 0;
  sim::Histogram fabric_dma_read_latency;
  sim::Histogram fabric_dma_write_latency;
  uint64_t iommu_translations = 0;
  uint64_t iotlb_hits = 0;
  uint64_t iotlb_misses = 0;
  uint64_t iommu_faults = 0;
  uint64_t bus_messages = 0;
  uint64_t bus_bytes = 0;
  uint64_t bus_cross_segment = 0;
  sim::Histogram bus_wire_latency;
  sim::Histogram bus_table_update_latency;
  uint64_t dev_rpc_retries = 0;
  uint64_t dev_rpc_timeouts = 0;
  uint64_t memdev_allocations = 0;
  uint64_t memdev_grants = 0;
  uint64_t memdev_rejections = 0;
  sim::Histogram kernel_op_latency;
  sim::Histogram kernel_queue_wait;
  uint64_t kernel_cross_segment_interrupts = 0;
};

LayerSnapshot TakeSnapshot(const LayerSources& sources);

// The per-layer metrics of one timed window of `ops` attempted operations.
// Counts are divided by `ops` where the metric name ends in `_per_op`.
MetricMap LayerDelta(const LayerSnapshot& before, const LayerSnapshot& after, uint64_t ops);

// Host nanoseconds per message of the bus codec (EncodeMessage,
// EncodedSize, DecodeMessage) over the request, response and directive
// types an alloc/grant/free op puts on the bus. Timed for at least
// `min_seconds`; returns proto.encode_ns_per_msg,
// proto.encoded_size_ns_per_msg and proto.decode_ns_per_msg.
MetricMap TimeCodec(double min_seconds);

}  // namespace lastcpu::perfbench

#endif  // PERFBENCH_LAYERS_H_
