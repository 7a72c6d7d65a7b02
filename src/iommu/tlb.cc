#include "src/iommu/tlb.h"

#include "src/base/check.h"

namespace lastcpu::iommu {

Tlb::Tlb(TlbConfig config) : config_(config) {
  LASTCPU_CHECK(config.num_sets > 0 && config.ways > 0, "empty TLB geometry");
  LASTCPU_CHECK((config.num_sets & (config.num_sets - 1)) == 0, "num_sets must be a power of two");
  entries_.resize(static_cast<size_t>(config.num_sets) * config.ways);
}

void Tlb::Insert(Pasid pasid, uint64_t vpage, PteValue value) {
  size_t base = SetBase(pasid, vpage);
  Entry* victim = &entries_[base];
  for (uint32_t way = 0; way < config_.ways; ++way) {
    Entry& e = entries_[base + way];
    if (e.valid && e.pasid == pasid && e.vpage == vpage) {
      // Refresh an existing entry in place.
      e.value = value;
      e.last_used = ++clock_;
      return;
    }
    if (!e.valid) {
      victim = &e;
    } else if (victim->valid && e.last_used < victim->last_used) {
      victim = &e;
    }
  }
  if (!victim->valid) {
    ++valid_;
  }
  victim->valid = true;
  victim->pasid = pasid;
  victim->vpage = vpage;
  victim->value = value;
  victim->last_used = ++clock_;
}

void Tlb::InvalidatePage(Pasid pasid, uint64_t vpage) {
  if (valid_ == 0) {
    return;
  }
  size_t base = SetBase(pasid, vpage);
  for (uint32_t way = 0; way < config_.ways; ++way) {
    Entry& e = entries_[base + way];
    if (e.valid && e.pasid == pasid && e.vpage == vpage) {
      e.valid = false;
      --valid_;
    }
  }
}

void Tlb::InvalidatePasid(Pasid pasid) {
  if (valid_ == 0) {
    return;
  }
  for (Entry& e : entries_) {
    if (e.valid && e.pasid == pasid) {
      e.valid = false;
      --valid_;
    }
  }
}

void Tlb::InvalidateAll() {
  for (Entry& e : entries_) {
    e.valid = false;
  }
  valid_ = 0;
}

double Tlb::HitRate() const {
  uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

}  // namespace lastcpu::iommu
