// Set-associative translation lookaside buffer for the IOMMU, keyed by
// (PASID, virtual page). LRU replacement within each set.
#ifndef SRC_IOMMU_TLB_H_
#define SRC_IOMMU_TLB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/types.h"
#include "src/iommu/page_table.h"

namespace lastcpu::iommu {

struct TlbConfig {
  uint32_t num_sets = 16;
  uint32_t ways = 4;
};

class Tlb {
 public:
  explicit Tlb(TlbConfig config);

  // Returns the cached translation and refreshes its recency. Defined inline:
  // this is on the per-access translation path, hot enough that the
  // cross-TU call was visible in profiles.
  std::optional<PteValue> Lookup(Pasid pasid, uint64_t vpage) {
    size_t base = SetBase(pasid, vpage);
    for (uint32_t way = 0; way < config_.ways; ++way) {
      Entry& e = entries_[base + way];
      if (e.valid && e.pasid == pasid && e.vpage == vpage) {
        e.last_used = ++clock_;
        ++hits_;
        return e.value;
      }
    }
    ++misses_;
    return std::nullopt;
  }

  // Inserts (possibly evicting the set's LRU entry).
  void Insert(Pasid pasid, uint64_t vpage, PteValue value);

  // Invalidation: single page, whole address space, or everything. The bus
  // shoots down TLBs on unmap/revoke, exactly like an IOTLB invalidation
  // command in a real IOMMU. An empty TLB returns at once: control-plane
  // unmaps mostly hit devices that never translated through the mapping.
  void InvalidatePage(Pasid pasid, uint64_t vpage);
  void InvalidatePasid(Pasid pasid);
  void InvalidateAll();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  double HitRate() const;

  uint32_t capacity() const { return config_.num_sets * config_.ways; }
  // Entries currently valid.
  uint32_t valid_entries() const { return valid_; }

 private:
  struct Entry {
    bool valid = false;
    Pasid pasid;
    uint64_t vpage = 0;
    PteValue value;
    uint64_t last_used = 0;
  };

  size_t SetBase(Pasid pasid, uint64_t vpage) const {
    // Mix PASID into the index so address spaces spread across sets.
    uint64_t h = vpage ^ (static_cast<uint64_t>(pasid.value()) * 0x9E3779B97F4A7C15ULL);
    return static_cast<size_t>(h & (config_.num_sets - 1)) * config_.ways;
  }

  TlbConfig config_;
  std::vector<Entry> entries_;
  uint32_t valid_ = 0;
  uint64_t clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace lastcpu::iommu

#endif  // SRC_IOMMU_TLB_H_
