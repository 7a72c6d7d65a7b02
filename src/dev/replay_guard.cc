#include "src/dev/replay_guard.h"

#include <bit>

#include "src/base/check.h"

namespace lastcpu::dev {
namespace {

constexpr size_t kIndexMask = ReplayGuard::kIndexSize - 1;
static_assert(std::has_single_bit(ReplayGuard::kIndexSize), "index size must be a power of two");
static_assert(ReplayGuard::kWindow < UINT16_MAX, "slot numbers must fit the index cells");

}  // namespace

size_t ReplayGuard::Home(Key key) {
  // Fibonacci hashing: the product's top bits mix every input bit.
  uint64_t h = (key.id.value() ^ (uint64_t{key.src.value()} * 0xC2B2AE3D27D4EB4FULL)) *
               0x9E3779B97F4A7C15ULL;
  return static_cast<size_t>(h >> (64 - std::countr_zero(kIndexSize)));
}

size_t ReplayGuard::FindCell(Key key) const {
  if (index_.empty()) {
    return kIndexSize;
  }
  for (size_t cell = Home(key); index_[cell].slot != kEmptyCell;
       cell = (cell + 1) & kIndexMask) {
    if (index_[cell].key == key) {
      return cell;
    }
  }
  return kIndexSize;
}

void ReplayGuard::EraseCell(size_t cell) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever the hole lies on their own probe path, so lookups never
  // stop early at a gap and no tombstones accumulate.
  size_t hole = cell;
  for (size_t j = (hole + 1) & kIndexMask; index_[j].slot != kEmptyCell;
       j = (j + 1) & kIndexMask) {
    size_t home = Home(index_[j].key);
    if (((j - home) & kIndexMask) >= ((j - hole) & kIndexMask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].slot = kEmptyCell;
}

const ReplayGuard::Entry* ReplayGuard::Admit(Key key) {
  if (index_.empty()) {
    // Reserved, not constructed: a device that serves a handful of requests
    // touches only the slots it uses.
    slots_.reserve(kWindow);
    index_.resize(kIndexSize);
  }
  size_t found = FindCell(key);
  if (found != kIndexSize) {
    return &slots_[index_[found].slot];
  }
  if (slots_.size() == kWindow) {
    // The ring is full, so the slot about to be reused holds the oldest key.
    size_t oldest = FindCell(slots_[next_].key);
    LASTCPU_CHECK(oldest != kIndexSize, "replay window slot missing from its index");
    EraseCell(oldest);
  } else {
    slots_.emplace_back();
  }
  size_t cell = Home(key);
  while (index_[cell].slot != kEmptyCell) {
    cell = (cell + 1) & kIndexMask;
  }
  Entry& slot = slots_[next_];
  slot.key = key;
  slot.answered = false;
  index_[cell] = Cell{key, static_cast<uint16_t>(next_)};
  next_ = (next_ + 1) % kWindow;
  return nullptr;
}

void ReplayGuard::Answer(const proto::Message& response) {
  size_t cell = FindCell(Key{response.dst, response.request_id});
  if (cell == kIndexSize) {
    return;
  }
  Entry& entry = slots_[index_[cell].slot];
  if (!entry.answered) {
    entry.answered = true;
    entry.response = response;
  }
}

void ReplayGuard::Clear() {
  slots_.clear();
  for (Cell& cell : index_) {
    cell.slot = kEmptyCell;
  }
  next_ = 0;
}

}  // namespace lastcpu::dev
