// Per-layer simulated self time from a traced run.
//
// The benchmark opens one root span per operation (from when the op was due
// until it completed) and one step span around each call it makes into a
// layer. Spans the program itself records hang below those through their
// parent ids. A program span recorded with no parent joins the step it
// belongs to in one of two ways: it was opened while the benchmark was inside
// the step's synchronous call (the centralized kernel's syscall spans), or it
// handles a bus message whose send was recorded inside that call (a memory
// controller serving a request the benchmark's device just sent).
//
// Self time splits each root span exactly: every instant of the op is charged
// to the deepest span of its tree that is open at that instant (ties go to
// the span opened last), clipped to the root's interval. The root and step
// spans are the benchmark's own, so time charged to them is time no program
// span covers ("untraced": bus and network wire time, for instance). By
// construction the charges of one op sum to its root span's duration; the
// breakdown checks that they do.
#ifndef PERFBENCH_TRACE_BREAKDOWN_H_
#define PERFBENCH_TRACE_BREAKDOWN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/trace.h"

namespace lastcpu::perfbench {

// The component every benchmark-owned span is recorded under.
inline constexpr const char* kBenchComponent = "bench";
// The layer time charged to benchmark spans is reported under.
inline constexpr const char* kUntracedLayer = "untraced";

// Records appended while the benchmark was inside one synchronous call made
// under `step`: indexes [begin, end) of TraceLog::records().
struct AdoptionRange {
  size_t begin = 0;
  size_t end = 0;
  sim::SpanId step = 0;
};

struct BreakdownInput {
  const std::vector<sim::TraceRecord>* records = nullptr;
  // Ascending, non-overlapping.
  std::vector<AdoptionRange> adoptions;
  // Root spans of the ops to break down.
  std::vector<sim::SpanId> roots;
  // Trace component name -> reported layer name. Components not listed map
  // to themselves; kBenchComponent maps to kUntracedLayer.
  std::map<std::string, std::string> layer_of;
};

struct Breakdown {
  // Simulated nanoseconds charged to each layer, summed over the roots.
  std::map<std::string, uint64_t> self_ns;
  uint64_t root_ns = 0;  // sum of the roots' durations
  uint64_t ops = 0;      // roots broken down
  // Program spans reachable from no root: their parent chain never reaches
  // a benchmark span.
  uint64_t unlinked_spans = 0;
  // Empty when every op's charges summed to its root's duration and every
  // root was found closed; otherwise what went wrong.
  std::string error;
};

Breakdown ComputeBreakdown(const BreakdownInput& input);

}  // namespace lastcpu::perfbench

#endif  // PERFBENCH_TRACE_BREAKDOWN_H_
