// IOMMU page table, one per (device, PASID) pair.
//
// Functionally a sparse host map from virtual page to PTE. The hardware it
// models is a 3-level, 512-ary radix (9 bits per level, 4 KiB pages -> 39-bit
// virtual space) like the x86/SMMU structures real IOMMUs walk, but that shape
// only matters to timing: the fabric prices every walk as kLevels levels, so
// the host storage need not mirror it.
#ifndef SRC_IOMMU_PAGE_TABLE_H_
#define SRC_IOMMU_PAGE_TABLE_H_

#include <cstdint>
#include <unordered_map>

#include "src/base/status.h"
#include "src/base/types.h"

namespace lastcpu::iommu {

// A resolved translation for one page.
struct PteValue {
  uint64_t pframe = 0;
  Access access = Access::kNone;
};

class PageTable {
 public:
  // Levels a walk of the modeled radix touches (the fabric's walk charge).
  static constexpr int kLevels = 3;
  static constexpr int kBitsPerLevel = 9;
  // Virtual page numbers must fit in kLevels * kBitsPerLevel bits.
  static constexpr uint64_t kMaxVpage = (uint64_t{1} << (kLevels * kBitsPerLevel)) - 1;

  // Installs a mapping. Remapping an already-present page is rejected: the
  // owner must unmap first (prevents silent aliasing).
  Status Map(uint64_t vpage, uint64_t pframe, Access access);

  // Removes a mapping; NotFound if the page is not mapped.
  Status Unmap(uint64_t vpage);

  // The page's PTE, or NotFound if it is not mapped.
  Result<PteValue> Lookup(uint64_t vpage) const;

  uint64_t mapped_pages() const { return ptes_.size(); }

 private:
  std::unordered_map<uint64_t, PteValue> ptes_;
};

}  // namespace lastcpu::iommu

#endif  // SRC_IOMMU_PAGE_TABLE_H_
