#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::sim {

// Min-heap order on (when, seq): FIFO among simultaneous events. Shared by
// the heap helpers and Compact()'s rebuilds.
static bool RefAfter(const SimTime& a_when, uint64_t a_seq, const SimTime& b_when,
                     uint64_t b_seq) {
  if (a_when != b_when) {
    return a_when > b_when;
  }
  return a_seq > b_seq;
}

Simulator::Simulator(CalendarConfig calendar)
    : bucket_width_nanos_(calendar.bucket_width.nanos()),
      bucket_mask_(calendar.bucket_count - 1),
      cur_end_(SimTime::Zero() + calendar.bucket_width) {
  LASTCPU_CHECK(calendar.bucket_width > Duration::Zero(), "zero calendar bucket width");
  LASTCPU_CHECK(calendar.bucket_count > 0 &&
                    (calendar.bucket_count & (calendar.bucket_count - 1)) == 0,
                "calendar bucket count must be a power of two");
  buckets_.resize(calendar.bucket_count);
  occupied_.assign((calendar.bucket_count + 63) / 64, 0);
}

Simulator::~Simulator() = default;

void Simulator::HeapPush(std::vector<Ref>& heap, Ref ref) {
  heap.push_back(ref);
  std::push_heap(heap.begin(), heap.end(), [](const Ref& a, const Ref& b) {
    return RefAfter(a.when, a.seq, b.when, b.seq);
  });
}

Simulator::Ref Simulator::HeapPop(std::vector<Ref>& heap) {
  std::pop_heap(heap.begin(), heap.end(), [](const Ref& a, const Ref& b) {
    return RefAfter(a.when, a.seq, b.when, b.seq);
  });
  Ref ref = heap.back();
  heap.pop_back();
  return ref;
}

uint32_t Simulator::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  uint32_t slot = static_cast<uint32_t>(generations_.size());
  if ((slot & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  generations_.push_back(1);
  return slot;
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Node& node = NodeAt(slot);
  node.fn = nullptr;
  node.in_queue = false;
  node.periodic = false;
  BumpGeneration(slot);
  free_slots_.push_back(slot);
}

EventId Simulator::CommitSchedule(uint32_t slot, SimTime when, bool daemon, bool periodic,
                                  Duration period) {
  LASTCPU_CHECK(when >= now_, "scheduling into the past: %lu < %lu",
                static_cast<unsigned long>(when.nanos()),
                static_cast<unsigned long>(now_.nanos()));
  if (periodic) {
    LASTCPU_CHECK(period > Duration::Zero(), "periodic event with zero period");
  }
  Node& node = NodeAt(slot);
  LASTCPU_CHECK(node.fn, "null event callback");
  node.in_queue = true;
  node.daemon = daemon;
  node.periodic = periodic;
  node.period = period;
  uint64_t seq = next_seq_++;
  ++pending_count_;
  if (!daemon) {
    ++live_events_;
  }
  uint32_t generation = generations_[slot];
  InsertRef(Ref{when, seq, slot, generation});
  return EventId(slot, generation);
}

SimTime Simulator::Horizon() const {
  return cur_end_ + Duration::Nanos(bucket_width_nanos_ *
                                    static_cast<uint64_t>(buckets_.size()));
}

void Simulator::InsertRef(Ref ref) {
  if (ref.when < cur_end_) {
    HeapPush(cur_, ref);
    return;
  }
  uint64_t idx = (ref.when.nanos() - cur_end_.nanos()) / bucket_width_nanos_;
  if (idx < buckets_.size()) {
    uint32_t slot = (base_ + static_cast<uint32_t>(idx)) & bucket_mask_;
    buckets_[slot].push_back(ref);
    occupied_[slot >> 6] |= uint64_t{1} << (slot & 63);
    ++refs_in_buckets_;
    return;
  }
  HeapPush(spill_, ref);
}

bool Simulator::Cancel(EventId id) {
  if (!id.valid() || id.slot_ >= generations_.size()) {
    return false;
  }
  if (generations_[id.slot_] != id.generation_) {
    return false;  // already ran, already cancelled, or slot reused
  }
  Node& node = NodeAt(id.slot_);
  if (node.in_queue) {
    --pending_count_;
    if (!node.daemon) {
      --live_events_;
    }
    // The queued ref goes stale; it is skimmed at pop or swept by Compact().
    ++cancelled_refs_;
  }
  // O(1) reclamation: the callback (and everything it captured) dies now.
  ReleaseSlot(id.slot_);
  MaybeCompact();
  return true;
}

void Simulator::AdvanceOneBucket() {
  std::vector<Ref>& bucket = buckets_[base_];
  occupied_[base_ >> 6] &= ~(uint64_t{1} << (base_ & 63));
  base_ = (base_ + 1) & bucket_mask_;
  cur_end_ = cur_end_ + Duration::Nanos(bucket_width_nanos_);
  refs_in_buckets_ -= bucket.size();
  for (const Ref& ref : bucket) {
    if (RefLive(ref)) {
      HeapPush(cur_, ref);
    } else {
      --cancelled_refs_;
    }
  }
  bucket.clear();
  DrainSpillIntoWindow();
}

void Simulator::JumpToSpill() {
  // Precondition: cur_ and every bucket are empty, spill_ top is live. Slide
  // the whole window so the earliest far-future event lands in cur_; no
  // alignment is needed because buckets are indexed relative to cur_end_.
  cur_end_ = spill_.front().when + Duration::Nanos(bucket_width_nanos_);
  DrainSpillIntoWindow();
}

void Simulator::DrainSpillIntoWindow() {
  SimTime horizon = Horizon();
  while (!spill_.empty() && spill_.front().when < horizon) {
    Ref ref = HeapPop(spill_);
    if (RefLive(ref)) {
      InsertRef(ref);
    } else {
      --cancelled_refs_;
    }
  }
}

void Simulator::SkipEmptyBuckets() {
  // Find the smallest k with ring slot (base_ + k) occupied, scanning the
  // bitmap a word at a time starting from base_'s word (bits below base_
  // masked off; they belong to the window's far end and are caught on wrap).
  const uint32_t nwords = static_cast<uint32_t>(occupied_.size());
  uint32_t w = base_ >> 6;
  uint64_t word = occupied_[w] & (~uint64_t{0} << (base_ & 63));
  for (uint32_t scanned = 0;; ++scanned) {
    if (word != 0) {
      uint32_t found = (w << 6) + static_cast<uint32_t>(std::countr_zero(word));
      uint32_t k = (found - base_) & bucket_mask_;
      if (k != 0) {
        // Skipped buckets are empty: nothing to rotate, nothing to drain.
        // Spill refs all lie at or beyond the old horizon, so none of them
        // precedes the bucket this jump lands on.
        base_ = (base_ + k) & bucket_mask_;
        cur_end_ = cur_end_ + Duration::Nanos(bucket_width_nanos_ * k);
      }
      return;
    }
    LASTCPU_CHECK(scanned <= nwords, "occupancy bitmap empty with refs_in_buckets_ > 0");
    w = (w + 1) % nwords;
    word = occupied_[w];
  }
}

bool Simulator::EnsureNext() {
  while (true) {
    while (!cur_.empty() && !RefLive(cur_.front())) {
      HeapPop(cur_);
      --cancelled_refs_;
    }
    if (!cur_.empty()) {
      return true;
    }
    if (refs_in_buckets_ > 0) {
      SkipEmptyBuckets();
      AdvanceOneBucket();
      continue;
    }
    while (!spill_.empty() && !RefLive(spill_.front())) {
      HeapPop(spill_);
      --cancelled_refs_;
    }
    if (!spill_.empty()) {
      JumpToSpill();
      continue;
    }
    return false;
  }
}

void Simulator::RunTop() {
  Ref ref = HeapPop(cur_);
  Node& node = NodeAt(ref.slot);
  now_ = ref.when;
  ++events_executed_;
  node.in_queue = false;
  --pending_count_;
  if (!node.daemon) {
    --live_events_;
  }
  if (!node.periodic) {
    // Retire the id, then invoke the callback in place: Cancel() on the own
    // id during the callback is a clean miss (generation already moved on),
    // and chunk-stable node storage means the callback may freely schedule
    // (growing the pool) without moving out from under itself. The slot
    // returns to the freelist only after the invocation, so nothing reuses
    // the storage mid-call.
    BumpGeneration(ref.slot);
    node.fn();
    node.fn = nullptr;
    free_slots_.push_back(ref.slot);
    return;
  }
  // Periodic: invoke, then re-arm the same slot (same generation, so the
  // original EventId keeps working) unless the callback cancelled itself.
  EventFn fn = std::move(node.fn);
  fn();
  Node& again = NodeAt(ref.slot);
  if (generations_[ref.slot] != ref.generation) {
    return;  // cancelled during its own invocation; slot already reclaimed
  }
  again.fn = std::move(fn);
  again.in_queue = true;
  ++pending_count_;
  InsertRef(Ref{now_ + again.period, next_seq_++, ref.slot, ref.generation});
}

void Simulator::Run() {
  // Daemons alone do not sustain the run; they execute only while real work
  // remains ahead of them.
  while (live_events_ > 0 && EnsureNext()) {
    RunTop();
  }
}

void Simulator::RunUntil(SimTime deadline) {
  LASTCPU_CHECK(deadline >= now_, "RunUntil into the past");
  while (EnsureNext() && cur_.front().when <= deadline) {
    RunTop();
  }
  now_ = deadline;
}

void Simulator::RunFor(Duration delta) { RunUntil(now_ + delta); }

bool Simulator::Step() {
  if (!EnsureNext()) {
    return false;
  }
  RunTop();
  return true;
}

void Simulator::MaybeCompact() {
  // Compact once cancelled refs outnumber live ones (and are worth the
  // sweep): a schedule-then-cancel burst — per-attempt RPC deadlines that
  // almost always get cancelled — must not grow the queues unboundedly.
  constexpr size_t kCompactFloor = 64;
  if (cancelled_refs_ < kCompactFloor) {
    return;
  }
  size_t total = cur_.size() + refs_in_buckets_ + spill_.size();
  if (cancelled_refs_ * 2 > total) {
    Compact();
  }
}

void Simulator::Compact() {
  auto is_stale = [this](const Ref& ref) { return !RefLive(ref); };
  auto cmp = [](const Ref& a, const Ref& b) {
    return RefAfter(a.when, a.seq, b.when, b.seq);
  };
  cur_.erase(std::remove_if(cur_.begin(), cur_.end(), is_stale), cur_.end());
  std::make_heap(cur_.begin(), cur_.end(), cmp);
  spill_.erase(std::remove_if(spill_.begin(), spill_.end(), is_stale), spill_.end());
  std::make_heap(spill_.begin(), spill_.end(), cmp);
  // Only occupied buckets can hold stale refs; the bitmap names them.
  for (uint32_t w = 0; w < occupied_.size(); ++w) {
    for (uint64_t word = occupied_[w]; word != 0; word &= word - 1) {
      uint32_t slot = (w << 6) + static_cast<uint32_t>(std::countr_zero(word));
      std::vector<Ref>& bucket = buckets_[slot];
      size_t before = bucket.size();
      bucket.erase(std::remove_if(bucket.begin(), bucket.end(), is_stale), bucket.end());
      refs_in_buckets_ -= before - bucket.size();
      if (bucket.empty()) {
        occupied_[w] &= ~(uint64_t{1} << (slot & 63));
      }
    }
  }
  cancelled_refs_ = 0;
  ++compactions_;
}

}  // namespace lastcpu::sim
