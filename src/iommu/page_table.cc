#include "src/iommu/page_table.h"

namespace lastcpu::iommu {

Status PageTable::Map(uint64_t vpage, uint64_t pframe, Access access) {
  if (vpage > kMaxVpage) {
    return InvalidArgument("virtual page outside 39-bit space");
  }
  if (access == Access::kNone) {
    return InvalidArgument("mapping with no access rights");
  }
  if (!ptes_.try_emplace(vpage, PteValue{pframe, access}).second) {
    return AlreadyExists("page already mapped");
  }
  return OkStatus();
}

Status PageTable::Unmap(uint64_t vpage) {
  if (vpage > kMaxVpage) {
    return InvalidArgument("virtual page outside 39-bit space");
  }
  if (ptes_.erase(vpage) == 0) {
    return NotFound("page not mapped");
  }
  return OkStatus();
}

Result<PteValue> PageTable::Lookup(uint64_t vpage) const {
  if (vpage > kMaxVpage) {
    return InvalidArgument("virtual page outside 39-bit space");
  }
  auto it = ptes_.find(vpage);
  if (it == ptes_.end()) {
    return NotFound("page not mapped");
  }
  return it->second;
}

}  // namespace lastcpu::iommu
