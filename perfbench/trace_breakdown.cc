#include "perfbench/trace_breakdown.h"

#include <algorithm>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace lastcpu::perfbench {
namespace {

struct Span {
  std::string_view component;
  uint64_t begin = 0;
  uint64_t end = 0;
  bool closed = false;
  sim::SpanId parent = 0;
};

struct Member {
  sim::SpanId id;
  uint32_t depth;
};

}  // namespace

Breakdown ComputeBreakdown(const BreakdownInput& input) {
  Breakdown out;
  const std::vector<sim::TraceRecord>& records = *input.records;

  std::unordered_map<sim::SpanId, Span> spans;
  std::unordered_map<sim::SpanId, std::vector<sim::SpanId>> children;
  // Flows sent inside a step's synchronous call, and the step.
  std::unordered_map<sim::FlowId, sim::SpanId> flow_step;
  auto adoption = input.adoptions.begin();
  for (size_t i = 0; i < records.size(); ++i) {
    const sim::TraceRecord& record = records[i];
    while (adoption != input.adoptions.end() && adoption->end <= i) {
      ++adoption;
    }
    sim::SpanId step =
        adoption != input.adoptions.end() && adoption->begin <= i ? adoption->step : 0;
    switch (record.kind) {
      case sim::TraceKind::kSpanBegin: {
        sim::SpanId parent = record.parent;
        if (parent == 0 && record.component != kBenchComponent) {
          parent = step;
        }
        spans[record.span] = Span{record.component, record.when.nanos(), 0, false, parent};
        if (parent != 0) {
          children[parent].push_back(record.span);
        }
        break;
      }
      case sim::TraceKind::kSpanEnd: {
        auto it = spans.find(record.span);
        if (it != spans.end()) {
          it->second.end = record.when.nanos();
          it->second.closed = true;
        }
        break;
      }
      case sim::TraceKind::kFlowSend:
        if (step != 0) {
          flow_step[record.flow] = step;
        }
        break;
      case sim::TraceKind::kFlowReceive: {
        auto sender = flow_step.find(record.flow);
        auto receiver = spans.find(record.span);
        if (sender != flow_step.end() && receiver != spans.end() &&
            receiver->second.parent == 0) {
          receiver->second.parent = sender->second;
          children[sender->second].push_back(record.span);
        }
        break;
      }
      case sim::TraceKind::kInstant:
        break;
    }
  }

  auto layer_of = [&](std::string_view component) -> std::string {
    if (component == kBenchComponent) {
      return kUntracedLayer;
    }
    auto it = input.layer_of.find(std::string(component));
    return it == input.layer_of.end() ? std::string(component) : it->second;
  };

  std::unordered_set<sim::SpanId> reached;
  std::vector<Member> tree;
  std::vector<uint64_t> points;
  for (sim::SpanId root : input.roots) {
    auto root_it = spans.find(root);
    if (root_it == spans.end() || !root_it->second.closed) {
      out.error = "op root span " + std::to_string(root) + " missing or never closed";
      return out;
    }
    const uint64_t lo = root_it->second.begin;
    const uint64_t hi = root_it->second.end;

    tree.clear();
    tree.push_back(Member{root, 0});
    reached.insert(root);
    for (size_t next = 0; next < tree.size(); ++next) {
      Member member = tree[next];
      auto kids = children.find(member.id);
      if (kids == children.end()) {
        continue;
      }
      for (sim::SpanId child : kids->second) {
        if (reached.insert(child).second) {
          tree.push_back(Member{child, member.depth + 1});
        }
      }
    }

    // Each span's interval clipped to the op; a span still open at the end
    // of the trace runs to the op's end.
    auto clipped = [&](sim::SpanId id) {
      const Span& span = spans.at(id);
      uint64_t b = std::max(span.begin, lo);
      uint64_t e = std::min(span.closed ? span.end : hi, hi);
      return std::pair<uint64_t, uint64_t>{b, std::max(b, e)};
    };
    points.clear();
    for (const Member& member : tree) {
      auto [b, e] = clipped(member.id);
      points.push_back(b);
      points.push_back(e);
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());

    uint64_t charged = 0;
    for (size_t k = 0; k + 1 < points.size(); ++k) {
      const uint64_t from = points[k];
      const uint64_t to = points[k + 1];
      const Member* owner = nullptr;
      std::tuple<uint32_t, uint64_t, sim::SpanId> best{0, 0, 0};
      for (const Member& member : tree) {
        auto [b, e] = clipped(member.id);
        if (b > from || e < to) {
          continue;
        }
        std::tuple<uint32_t, uint64_t, sim::SpanId> rank{member.depth, spans.at(member.id).begin,
                                                         member.id};
        if (owner == nullptr || rank > best) {
          owner = &member;
          best = rank;
        }
      }
      if (owner != nullptr) {
        out.self_ns[layer_of(spans.at(owner->id).component)] += to - from;
        charged += to - from;
      }
    }
    if (charged != hi - lo) {
      out.error = "self times of op root " + std::to_string(root) + " sum to " +
                  std::to_string(charged) + " ns, root span lasts " + std::to_string(hi - lo) +
                  " ns";
      return out;
    }
    out.root_ns += hi - lo;
    ++out.ops;
  }

  for (const auto& [id, span] : spans) {
    if (span.component != kBenchComponent && !reached.contains(id)) {
      ++out.unlinked_spans;
    }
  }
  return out;
}

}  // namespace lastcpu::perfbench
