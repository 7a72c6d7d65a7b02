#include "src/memdev/memory_controller.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/base/check.h"
#include "src/dev/service.h"

namespace lastcpu::memdev {

MemoryController::MemoryController(DeviceId id, const dev::DeviceContext& context,
                                   mem::PhysicalMemory* memory, MemoryControllerConfig config,
                                   dev::DeviceConfig device_config)
    : dev::Device(id, "memctrl", context, device_config),
      allocator_(config.frame_count != 0 ? config.frame_count : memory->num_frames()),
      memory_(memory),
      config_(config) {
  LASTCPU_CHECK(config.frame_base + allocator_.total_frames() <= memory->num_frames(),
                "controller shard extends past physical memory");
  // Announce the memory service: this is what makes the bus treat this device
  // as the memory resource controller.
  class MemoryService : public dev::Service {
   public:
    explicit MemoryService(DeviceId provider)
        : Service(proto::ServiceDescriptor{provider, proto::ServiceType::kMemory, "dram", 0}) {}
    Result<proto::OpenResponse> Open(DeviceId, const proto::OpenRequest&) override {
      return Unimplemented("memory is requested via MemAllocRequest messages");
    }
  };
  AddService(std::make_unique<MemoryService>(id));
}

void MemoryController::OnAlive() {
  if (!sharded()) {
    return;
  }
  // Register this shard's VA slab with the bus router so vaddr-carrying
  // control messages (grant/revoke/free) route here without a lookup table on
  // the client. Re-announcing after a restart is idempotent.
  proto::ShardRecord shard;
  shard.device = id();
  shard.segment = config_.segment;
  shard.va_base = config_.va_base;
  shard.va_limit = config_.va_limit;
  shard.capacity_bytes = capacity_bytes();
  shard.epoch = epoch_;
  SendOneWay(kBusDevice, proto::MemShardAnnounce{shard});
  // Coming back from a table-wiping restart: hold new allocations until the
  // old clients have had a chance to re-assert their leases.
  if (epoch_ > 1 && config_.recovery_window > sim::Duration::Zero()) {
    recovering_until_ = simulator()->Now() + config_.recovery_window;
  }
}

void MemoryController::OnReset() {
  if (sharded()) {
    // Shard tables are volatile (no battery-backed NVRAM in the chassis):
    // a restart loses them, and clients rebuild the state by re-asserting
    // their leases. Bumping the epoch makes the bus fence any directive this
    // controller issued before it died.
    tables_.clear();
    next_vpage_.clear();
    bytes_allocated_.clear();
    foreign_frames_.clear();
    allocator_ = mem::BuddyAllocator(config_.frame_count);
    ++epoch_;
    stats().GetCounter("shard_state_resets").Increment();
    if (tracer().enabled()) {
      TraceEvent("shard-reset", "epoch=" + std::to_string(epoch_));
    }
  }
  dev::Device::OnReset();
}

bool MemoryController::Recovering() {
  return recovering_until_ > sim::SimTime::Zero() && simulator()->Now() < recovering_until_;
}

uint64_t MemoryController::AllocatedBytes(Pasid pasid) const {
  auto it = bytes_allocated_.find(pasid);
  return it == bytes_allocated_.end() ? 0 : it->second;
}

uint64_t MemoryController::allocation_count() const {
  uint64_t count = 0;
  for (const auto& [pasid, table] : tables_) {
    count += table.size();
  }
  return count;
}

void MemoryController::OnMessage(const proto::Message& message) {
  switch (message.type()) {
    case proto::MessageType::kMemAllocRequest:
      HandleAlloc(message);
      return;
    case proto::MessageType::kMemFreeRequest:
      HandleFree(message);
      return;
    case proto::MessageType::kMemAllocBatchRequest:
      HandleAllocBatch(message);
      return;
    case proto::MessageType::kMemFreeBatchRequest:
      HandleFreeBatch(message);
      return;
    case proto::MessageType::kGrantRequest:
      HandleGrant(message);
      return;
    case proto::MessageType::kRevokeRequest:
      HandleRevoke(message);
      return;
    case proto::MessageType::kLeaseReassertRequest:
      HandleLeaseReassert(message);
      return;
    default:
      dev::Device::OnMessage(message);
      return;
  }
}

bool MemoryController::Overlaps(const Table& table, uint64_t vpage, uint64_t pages) {
  // Candidate allocation at or after vpage.
  auto next = table.lower_bound(vpage);
  if (next != table.end() && next->first < vpage + pages) {
    return true;
  }
  // Allocation starting before vpage may still cover it.
  if (next != table.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second.pages > vpage) {
      return true;
    }
  }
  return false;
}

Result<uint64_t> MemoryController::PlaceVirtual(Pasid pasid, uint64_t pages, VirtAddr hint) {
  Table& table = tables_[pasid];
  if (hint.raw != 0) {
    if (hint.offset() != 0) {
      return InvalidArgument("vaddr hint not page-aligned");
    }
    if (Overlaps(table, hint.page(), pages)) {
      return AlreadyExists("hinted region overlaps an existing allocation");
    }
    return hint.page();
  }
  auto [it, inserted] =
      next_vpage_.try_emplace(pasid, (config_.va_base + config_.va_bump_base) >> kPageShift);
  (void)inserted;
  uint64_t vpage = it->second;
  while (Overlaps(table, vpage, pages)) {
    vpage += pages;
  }
  if (config_.va_limit != 0 && (vpage + pages) << kPageShift > config_.va_limit) {
    stats().GetCounter("va_slab_rejections").Increment();
    return ResourceExhausted("shard VA slab exhausted");
  }
  it->second = vpage + pages;
  return vpage;
}

Allocation* MemoryController::FindCovering(Pasid pasid, VirtAddr vaddr, uint64_t bytes) {
  auto table_it = tables_.find(pasid);
  if (table_it == tables_.end()) {
    return nullptr;
  }
  Table& table = table_it->second;
  auto next = table.upper_bound(vaddr.page());
  if (next == table.begin()) {
    return nullptr;
  }
  auto it = std::prev(next);
  Allocation& allocation = it->second;
  uint64_t end_vpage = it->first + allocation.pages;
  uint64_t want_end = PageCeil(vaddr.raw + bytes) >> kPageShift;
  if (vaddr.page() >= it->first && want_end <= end_vpage) {
    return &allocation;
  }
  return nullptr;
}

std::vector<proto::MapEntry> MemoryController::EntriesFor(const Allocation& allocation,
                                                          uint64_t from_vpage, uint64_t pages,
                                                          Access access) {
  std::vector<proto::MapEntry> entries;
  entries.reserve(pages);
  uint64_t page_delta = from_vpage - allocation.vaddr.page();
  for (uint64_t i = 0; i < pages; ++i) {
    entries.push_back(
        proto::MapEntry{from_vpage + i, allocation.first_frame + page_delta + i, access});
  }
  return entries;
}

void MemoryController::SendDirective(DeviceId target, Pasid pasid,
                                     std::vector<proto::MapEntry> entries, bool unmap,
                                     Callback<void> done) {
  proto::MapDirective directive;
  directive.target = target;
  directive.pasid = pasid;
  directive.entries = std::move(entries);
  directive.unmap = unmap;
  directive.epoch = epoch_;  // lets the bus fence directives from a past life
  dev::RpcOptions options;
  options.max_attempts = 3;
  rpc().Call<void>(kBusDevice, std::move(directive), options, std::move(done));
}

void MemoryController::HandleAlloc(const proto::Message& message) {
  const auto& request = message.As<proto::MemAllocRequest>();
  if (request.bytes == 0) {
    ReplyError(message, InvalidArgument("zero-byte allocation"));
    return;
  }
  if (!request.pasid.valid()) {
    ReplyError(message, InvalidArgument("allocation without a PASID"));
    return;
  }
  if (Recovering()) {
    // Handing out frames before old leases are re-asserted could double-book
    // memory a surviving client still has mapped.
    stats().GetCounter("recovery_rejections").Increment();
    ReplyError(message, Unavailable("shard recovering: leases re-asserting"));
    return;
  }
  uint64_t pages = PagesForBytes(request.bytes);
  if (config_.max_bytes_per_pasid != 0 &&
      AllocatedBytes(request.pasid) + pages * kPageSize > config_.max_bytes_per_pasid) {
    stats().GetCounter("quota_rejections").Increment();
    ReplyError(message, ResourceExhausted("application memory quota exceeded"));
    return;
  }

  auto vpage = PlaceVirtual(request.pasid, pages, request.vaddr_hint);
  if (!vpage.ok()) {
    ReplyError(message, vpage.status());
    return;
  }
  auto frame = allocator_.Allocate(pages);
  if (!frame.ok()) {
    stats().GetCounter("oom_rejections").Increment();
    ReplyError(message, frame.status());
    return;
  }
  // Frames are allocator-relative; tables and map entries hold the absolute
  // frame so grantees on other shards see real physical addresses.
  uint64_t first_frame = config_.frame_base + *frame;
  // Zero-fill so no application ever sees another's stale data.
  for (uint64_t i = 0; i < pages; ++i) {
    memory_->ZeroFrame(first_frame + i);
  }

  Allocation allocation;
  allocation.vaddr = VirtAddr(*vpage << kPageShift);
  allocation.pages = pages;
  allocation.first_frame = first_frame;
  allocation.owner = message.src;
  allocation.owner_access = request.access;
  tables_[request.pasid].emplace(*vpage, allocation);
  bytes_allocated_[request.pasid] += pages * kPageSize;
  stats().GetCounter("allocations").Increment();
  stats().GetCounter("pages_allocated").Increment(pages);
  if (tracer().enabled()) {
    TraceEvent("alloc", "pasid=" + std::to_string(request.pasid.value()) +
                            " pages=" + std::to_string(pages));
  }

  // Direct the bus to program the requester's IOMMU; reply only once the
  // mapping is live (Fig. 2 step 6 precedes the response).
  auto entries = EntriesFor(allocation, *vpage, pages, request.access);
  proto::Message original = message;
  VirtAddr vaddr = allocation.vaddr;
  uint64_t bytes = pages * kPageSize;
  SendDirective(message.src, request.pasid, std::move(entries), /*unmap=*/false,
                [this, original, vaddr, bytes, vpage = *vpage, first_frame,
                 pasid = request.pasid](Result<void> mapped) {
                  if (!mapped.ok()) {
                    // Roll back the allocation the mapping never activated.
                    auto table_it = tables_.find(pasid);
                    if (table_it != tables_.end()) {
                      auto it = table_it->second.find(vpage);
                      if (it != table_it->second.end()) {
                        ReleaseAllocation(pasid, it);
                      }
                    }
                    ReplyError(original, mapped.status());
                    return;
                  }
                  Reply(original, proto::MemAllocResponse{vaddr, bytes, first_frame});
                });
}

void MemoryController::HandleAllocBatch(const proto::Message& message) {
  const auto& request = message.As<proto::MemAllocBatchRequest>();
  if (request.bytes == 0 || request.count == 0) {
    ReplyError(message, InvalidArgument("empty batch allocation"));
    return;
  }
  if (!request.pasid.valid()) {
    ReplyError(message, InvalidArgument("allocation without a PASID"));
    return;
  }
  if (Recovering()) {
    stats().GetCounter("recovery_rejections").Increment();
    ReplyError(message, Unavailable("shard recovering: leases re-asserting"));
    return;
  }
  uint64_t pages = PagesForBytes(request.bytes);
  uint64_t total_bytes = request.count * pages * kPageSize;
  if (config_.max_bytes_per_pasid != 0 &&
      AllocatedBytes(request.pasid) + total_bytes > config_.max_bytes_per_pasid) {
    stats().GetCounter("quota_rejections").Increment();
    ReplyError(message, ResourceExhausted("application memory quota exceeded"));
    return;
  }

  // Place and back every region first; the whole lease activates — or rolls
  // back — as one unit.
  std::vector<uint64_t> vpages;
  std::vector<uint64_t> frames;
  std::vector<proto::MapEntry> entries;
  vpages.reserve(request.count);
  frames.reserve(request.count);
  auto rollback = [this, &vpages, pasid = request.pasid] {
    for (uint64_t vpage : vpages) {
      auto table_it = tables_.find(pasid);
      if (table_it == tables_.end()) {
        break;
      }
      auto it = table_it->second.find(vpage);
      if (it != table_it->second.end()) {
        ReleaseAllocation(pasid, it);
      }
    }
  };
  for (uint32_t i = 0; i < request.count; ++i) {
    auto vpage = PlaceVirtual(request.pasid, pages, VirtAddr(0));
    if (!vpage.ok()) {
      rollback();
      ReplyError(message, vpage.status());
      return;
    }
    auto frame = allocator_.Allocate(pages);
    if (!frame.ok()) {
      stats().GetCounter("oom_rejections").Increment();
      rollback();
      ReplyError(message, frame.status());
      return;
    }
    uint64_t first_frame = config_.frame_base + *frame;
    for (uint64_t p = 0; p < pages; ++p) {
      memory_->ZeroFrame(first_frame + p);
    }
    Allocation allocation;
    allocation.vaddr = VirtAddr(*vpage << kPageShift);
    allocation.pages = pages;
    allocation.first_frame = first_frame;
    allocation.owner = message.src;
    allocation.owner_access = request.access;
    tables_[request.pasid].emplace(*vpage, allocation);
    bytes_allocated_[request.pasid] += pages * kPageSize;
    stats().GetCounter("allocations").Increment();
    stats().GetCounter("pages_allocated").Increment(pages);
    auto region_entries = EntriesFor(allocation, *vpage, pages, request.access);
    entries.insert(entries.end(), region_entries.begin(), region_entries.end());
    vpages.push_back(*vpage);
    frames.push_back(first_frame);
  }
  stats().GetCounter("batch_allocs").Increment();
  stats().GetCounter("batch_allocd_regions").Increment(request.count);
  if (tracer().enabled()) {
    TraceEvent("alloc-batch", "pasid=" + std::to_string(request.pasid.value()) +
                                  " regions=" + std::to_string(request.count) +
                                  " pages_each=" + std::to_string(pages));
  }

  // One combined MapDirective programs every region; reply only once the
  // whole lease is live.
  proto::Message original = message;
  uint64_t region_bytes = pages * kPageSize;
  SendDirective(message.src, request.pasid, std::move(entries), /*unmap=*/false,
                [this, original, region_bytes, vpages = std::move(vpages),
                 frames = std::move(frames), pasid = request.pasid](Result<void> mapped) {
                  if (!mapped.ok()) {
                    for (uint64_t vpage : vpages) {
                      auto table_it = tables_.find(pasid);
                      if (table_it == tables_.end()) {
                        break;
                      }
                      auto it = table_it->second.find(vpage);
                      if (it != table_it->second.end()) {
                        ReleaseAllocation(pasid, it);
                      }
                    }
                    ReplyError(original, mapped.status());
                    return;
                  }
                  proto::MemAllocBatchResponse response;
                  response.bytes = region_bytes;
                  response.vaddrs.reserve(vpages.size());
                  for (uint64_t vpage : vpages) {
                    response.vaddrs.push_back(VirtAddr(vpage << kPageShift));
                  }
                  response.first_frames = frames;
                  Reply(original, std::move(response));
                });
}

void MemoryController::HandleFreeBatch(const proto::Message& message) {
  const auto& request = message.As<proto::MemFreeBatchRequest>();
  if (request.vaddrs.empty()) {
    ReplyError(message, InvalidArgument("empty batch free"));
    return;
  }
  auto table_it = tables_.find(request.pasid);
  if (table_it == tables_.end()) {
    ReplyError(message, NotFound("no allocations for PASID"));
    return;
  }
  // Validate every region before touching any: the batch frees as one unit.
  uint64_t pages = PagesForBytes(request.bytes);
  std::map<DeviceId, std::vector<proto::MapEntry>> per_target;
  for (const VirtAddr& vaddr : request.vaddrs) {
    auto it = table_it->second.find(vaddr.page());
    if (it == table_it->second.end() || it->second.pages != pages) {
      ReplyError(message, NotFound("no matching allocation in batch"));
      return;
    }
    if (it->second.owner != message.src) {
      stats().GetCounter("authorization_failures").Increment();
      ReplyError(message, PermissionDenied("only the owner may free an allocation"));
      return;
    }
    const Allocation& allocation = it->second;
    auto entries = EntriesFor(allocation, vaddr.page(), pages, Access::kRead);
    auto& owner_entries = per_target[allocation.owner];
    owner_entries.insert(owner_entries.end(), entries.begin(), entries.end());
    for (const auto& [grantee, access] : allocation.grants) {
      auto& grantee_entries = per_target[grantee];
      grantee_entries.insert(grantee_entries.end(), entries.begin(), entries.end());
    }
  }

  struct BatchFreeState {
    int outstanding = 0;
    proto::Message original;
  };
  auto state = std::make_shared<BatchFreeState>();
  state->original = message;
  auto finish = [this, state, pasid = request.pasid, vaddrs = request.vaddrs] {
    if (--state->outstanding > 0) {
      return;
    }
    for (const VirtAddr& vaddr : vaddrs) {
      auto table = tables_.find(pasid);
      if (table == tables_.end()) {
        break;
      }
      auto alloc_it = table->second.find(vaddr.page());
      if (alloc_it != table->second.end()) {
        ReleaseAllocation(pasid, alloc_it);
      }
    }
    Reply(state->original, proto::MemFreeBatchResponse{});
  };

  stats().GetCounter("batch_frees").Increment();
  stats().GetCounter("batch_freed_regions").Increment(request.vaddrs.size());
  state->outstanding = static_cast<int>(per_target.size());
  for (auto& [target, entries] : per_target) {
    SendDirective(target, request.pasid, std::move(entries), /*unmap=*/true,
                  [finish](Result<void>) { finish(); });
  }
}

void MemoryController::ReleaseAllocation(Pasid pasid, Table::iterator it) {
  const Allocation& allocation = it->second;
  if (foreign_frames_.erase(allocation.first_frame) > 0) {
    // An adopted range: the frames belong to a failed shard's slice, not this
    // allocator. Dropping the adoption record is the release.
    stats().GetCounter("foreign_frames_released").Increment();
  } else {
    LASTCPU_CHECK(
        allocator_.Free(allocation.first_frame - config_.frame_base, allocation.pages).ok(),
        "allocator table out of sync");
  }
  bytes_allocated_[pasid] -= allocation.pages * kPageSize;
  stats().GetCounter("frees").Increment();
  tables_[pasid].erase(it);
}

void MemoryController::HandleFree(const proto::Message& message) {
  const auto& request = message.As<proto::MemFreeRequest>();
  auto table_it = tables_.find(request.pasid);
  if (table_it == tables_.end()) {
    ReplyError(message, NotFound("no allocations for PASID"));
    return;
  }
  auto it = table_it->second.find(request.vaddr.page());
  if (it == table_it->second.end() || it->second.pages != PagesForBytes(request.bytes)) {
    ReplyError(message, NotFound("no matching allocation"));
    return;
  }
  if (it->second.owner != message.src) {
    stats().GetCounter("authorization_failures").Increment();
    ReplyError(message, PermissionDenied("only the owner may free an allocation"));
    return;
  }

  // Unmap from the owner and every grantee, then release the frames.
  Allocation allocation = it->second;
  uint64_t vpage = it->first;
  struct FreeState {
    int outstanding = 0;
    proto::Message original;
  };
  auto state = std::make_shared<FreeState>();
  state->original = message;

  auto finish = [this, state, pasid = request.pasid, vpage] {
    if (--state->outstanding > 0) {
      return;
    }
    auto table = tables_.find(pasid);
    if (table != tables_.end()) {
      auto alloc_it = table->second.find(vpage);
      if (alloc_it != table->second.end()) {
        ReleaseAllocation(pasid, alloc_it);
      }
    }
    Reply(state->original, proto::MemFreeResponse{});
  };

  std::vector<DeviceId> targets{allocation.owner};
  for (const auto& [grantee, access] : allocation.grants) {
    targets.push_back(grantee);
  }
  state->outstanding = static_cast<int>(targets.size());
  for (DeviceId target : targets) {
    auto entries = EntriesFor(allocation, vpage, allocation.pages, Access::kNone);
    for (auto& entry : entries) {
      entry.access = Access::kRead;  // access ignored on unmap; keep valid bits
    }
    SendDirective(target, request.pasid, std::move(entries), /*unmap=*/true,
                  [finish](Result<void>) { finish(); });
  }
}

void MemoryController::HandleGrant(const proto::Message& message) {
  const auto& request = message.As<proto::GrantRequest>();
  Allocation* allocation = FindCovering(request.pasid, request.vaddr, request.bytes);
  if (allocation == nullptr) {
    ReplyError(message, NotFound("grant range is not an allocated region"));
    return;
  }
  // Authorization (Sec. 3): only the owner of a region may grant it.
  if (allocation->owner != message.src) {
    stats().GetCounter("authorization_failures").Increment();
    ReplyError(message, PermissionDenied("only the owner may grant a region"));
    return;
  }
  if (request.grantee == message.src) {
    ReplyError(message, InvalidArgument("cannot grant a region to its owner"));
    return;
  }
  // The grantee may not receive more rights than the owner holds.
  if (!AccessCovers(allocation->owner_access, request.access)) {
    stats().GetCounter("authorization_failures").Increment();
    ReplyError(message, PermissionDenied("grant requests more access than the owner holds"));
    return;
  }

  uint64_t pages = PagesForBytes(request.bytes);
  auto entries = EntriesFor(*allocation, request.vaddr.page(), pages, request.access);
  allocation->grants.emplace_back(request.grantee, request.access);
  stats().GetCounter("grants").Increment();
  if (tracer().enabled()) {
    TraceEvent("grant", "to=" + std::to_string(request.grantee.value()) +
                            " pages=" + std::to_string(pages));
  }

  proto::Message original = message;
  SendDirective(request.grantee, request.pasid, std::move(entries), /*unmap=*/false,
                [this, original](Result<void> mapped) {
                  if (!mapped.ok()) {
                    ReplyError(original, mapped.status());
                    return;
                  }
                  Reply(original, proto::GrantResponse{});
                });
}

void MemoryController::HandleRevoke(const proto::Message& message) {
  const auto& request = message.As<proto::RevokeRequest>();
  Allocation* allocation = FindCovering(request.pasid, request.vaddr, request.bytes);
  if (allocation == nullptr) {
    ReplyError(message, NotFound("revoke range is not an allocated region"));
    return;
  }
  if (allocation->owner != message.src) {
    stats().GetCounter("authorization_failures").Increment();
    ReplyError(message, PermissionDenied("only the owner may revoke a grant"));
    return;
  }
  auto grant_it =
      std::find_if(allocation->grants.begin(), allocation->grants.end(),
                   [&](const auto& grant) { return grant.first == request.grantee; });
  if (grant_it == allocation->grants.end()) {
    ReplyError(message, NotFound("no such grant"));
    return;
  }
  allocation->grants.erase(grant_it);
  stats().GetCounter("revokes").Increment();

  uint64_t pages = PagesForBytes(request.bytes);
  auto entries = EntriesFor(*allocation, request.vaddr.page(), pages, Access::kRead);
  proto::Message original = message;
  SendDirective(request.grantee, request.pasid, std::move(entries), /*unmap=*/true,
                [this, original](Result<void> unmapped) {
                  if (!unmapped.ok()) {
                    ReplyError(original, unmapped.status());
                    return;
                  }
                  Reply(original, proto::RevokeResponse{});
                });
}

void MemoryController::OnTeardown(Pasid pasid) {
  auto table_it = tables_.find(pasid);
  if (table_it == tables_.end()) {
    return;
  }
  // Direct unmaps for every allocation and grant, then release the frames.
  for (auto& [vpage, allocation] : table_it->second) {
    std::vector<DeviceId> targets{allocation.owner};
    for (const auto& [grantee, access] : allocation.grants) {
      targets.push_back(grantee);
    }
    for (DeviceId target : targets) {
      auto entries = EntriesFor(allocation, vpage, allocation.pages, Access::kRead);
      SendDirective(target, pasid, std::move(entries), /*unmap=*/true, [](Result<void>) {});
    }
    if (foreign_frames_.erase(allocation.first_frame) > 0) {
      stats().GetCounter("foreign_frames_released").Increment();
    } else {
      LASTCPU_CHECK(
          allocator_.Free(allocation.first_frame - config_.frame_base, allocation.pages).ok(),
          "allocator table out of sync during teardown");
    }
  }
  stats().GetCounter("teardowns").Increment();
  bytes_allocated_.erase(pasid);
  next_vpage_.erase(pasid);
  tables_.erase(table_it);
}

bool MemoryController::AdoptForeignFrames(uint64_t first_frame, uint64_t pages) {
  // Overlap check against every adopted range: two clients re-asserting
  // leases over the same frames would otherwise double-own them.
  auto next = foreign_frames_.lower_bound(first_frame);
  if (next != foreign_frames_.end() && next->first < first_frame + pages) {
    return false;
  }
  if (next != foreign_frames_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second > first_frame) {
      return false;
    }
  }
  foreign_frames_.emplace(first_frame, pages);
  stats().GetCounter("foreign_frames_adopted").Increment();
  return true;
}

void MemoryController::HandleLeaseReassert(const proto::Message& message) {
  // A client re-establishing its allocations after this shard (or the shard
  // it took over for) lost its tables. Each lease names the exact virtual
  // placement and physical frames the client's IOMMU already maps; accepting
  // one re-admits the region without reprogramming anything. Rejections mean
  // the region is gone (frames already re-used or claimed by another lease)
  // and the client must treat the allocation as lost.
  const auto& request = message.As<proto::LeaseReassertRequest>();
  uint32_t accepted = 0;
  uint32_t rejected = 0;
  for (const auto& lease : request.leases) {
    if (!lease.pasid.valid() || lease.bytes == 0) {
      ++rejected;
      continue;
    }
    uint64_t pages = PagesForBytes(lease.bytes);
    uint64_t vpage = lease.vaddr.page();
    Table& table = tables_[lease.pasid];
    if (Overlaps(table, vpage, pages)) {
      // Idempotent if it is exactly this client's own record (a retried
      // re-assert); otherwise the placement is taken and the lease is dead.
      auto it = table.find(vpage);
      if (it != table.end() && it->second.pages == pages &&
          it->second.first_frame == lease.first_frame && it->second.owner == message.src) {
        ++accepted;
      } else {
        stats().GetCounter("lease_reasserts_rejected").Increment();
        ++rejected;
      }
      continue;
    }
    uint64_t own_begin = config_.frame_base;
    uint64_t own_end = config_.frame_base + allocator_.total_frames();
    bool frames_claimed;
    if (lease.first_frame >= own_begin && lease.first_frame + pages <= own_end) {
      frames_claimed = allocator_.Reserve(lease.first_frame - config_.frame_base, pages).ok();
    } else {
      frames_claimed = AdoptForeignFrames(lease.first_frame, pages);
    }
    if (!frames_claimed) {
      stats().GetCounter("lease_reasserts_rejected").Increment();
      ++rejected;
      continue;
    }
    Allocation allocation;
    allocation.vaddr = lease.vaddr;
    allocation.pages = pages;
    allocation.first_frame = lease.first_frame;
    allocation.owner = message.src;
    allocation.owner_access = lease.access;
    for (const auto& grant : lease.grants) {
      allocation.grants.emplace_back(grant.grantee, grant.access);
    }
    table.emplace(vpage, allocation);
    bytes_allocated_[lease.pasid] += pages * kPageSize;
    // Keep the bump pointer clear of re-admitted regions so post-recovery
    // allocations cannot race into the same VA range. Adopted leases from a
    // dead shard's slab live outside [va_base, va_limit) and must not drag
    // the pointer past this shard's own slab.
    bool in_own_slab = lease.vaddr.raw >= config_.va_base &&
                       (config_.va_limit == 0 || lease.vaddr.raw < config_.va_limit);
    if (in_own_slab) {
      auto [bump, inserted] = next_vpage_.try_emplace(
          lease.pasid, (config_.va_base + config_.va_bump_base) >> kPageShift);
      (void)inserted;
      bump->second = std::max(bump->second, vpage + pages);
    }
    stats().GetCounter("lease_reasserts_accepted").Increment();
    ++accepted;
  }
  if (tracer().enabled() && !request.leases.empty()) {
    TraceEvent("lease-reassert", "from=" + std::to_string(message.src.value()) +
                                     " accepted=" + std::to_string(accepted) +
                                     " rejected=" + std::to_string(rejected));
  }
  Reply(message, proto::LeaseReassertResponse{accepted, rejected, epoch_});
}

void MemoryController::OnPeerFailed(DeviceId device) {
  // A device died: revoke its grants everywhere. Its *owned* allocations stay
  // until the application is torn down (consumers may still hold grants and
  // the data may be recoverable), matching Sec. 4's consumer-driven recovery.
  for (auto& [pasid, table] : tables_) {
    for (auto& [vpage, allocation] : table) {
      auto removed = std::remove_if(allocation.grants.begin(), allocation.grants.end(),
                                    [&](const auto& grant) { return grant.first == device; });
      allocation.grants.erase(removed, allocation.grants.end());
    }
  }
}

uint64_t MemoryController::AllocationsOwnedBy(DeviceId device) const {
  uint64_t count = 0;
  for (const auto& [pasid, table] : tables_) {
    for (const auto& [vpage, allocation] : table) {
      if (allocation.owner == device) {
        ++count;
      }
    }
  }
  return count;
}

bool MemoryController::HasAllocationAt(Pasid pasid, VirtAddr vaddr) const {
  auto table = tables_.find(pasid);
  if (table == tables_.end()) {
    return false;
  }
  auto entry = table->second.find(vaddr.raw / kPageSize);
  return entry != table->second.end() && entry->second.vaddr == vaddr;
}

uint64_t MemoryController::GrantsHeldBy(DeviceId device) const {
  uint64_t count = 0;
  for (const auto& [pasid, table] : tables_) {
    for (const auto& [vpage, allocation] : table) {
      for (const auto& [grantee, access] : allocation.grants) {
        if (grantee == device) {
          ++count;
        }
      }
    }
  }
  return count;
}

void MemoryController::OnPeerPermanentlyFailed(DeviceId device) {
  // The supervisor gave up on this device: nobody will ever free its
  // allocations or use its grants, so the hopeful OnPeerFailed posture
  // (keep owned regions for recovery) would leak them forever. Reclaim
  // everything: drop grants it held, unmap its owned regions from surviving
  // grantees, and release the frames.
  uint64_t grants_dropped = 0;
  std::vector<std::pair<Pasid, uint64_t>> owned;
  for (auto& [pasid, table] : tables_) {
    for (auto& [vpage, allocation] : table) {
      auto removed = std::remove_if(allocation.grants.begin(), allocation.grants.end(),
                                    [&](const auto& grant) { return grant.first == device; });
      grants_dropped += static_cast<uint64_t>(allocation.grants.end() - removed);
      allocation.grants.erase(removed, allocation.grants.end());
      if (allocation.owner == device) {
        owned.emplace_back(pasid, vpage);
      }
    }
  }
  for (const auto& [pasid, vpage] : owned) {
    auto table_it = tables_.find(pasid);
    if (table_it == tables_.end()) {
      continue;
    }
    auto it = table_it->second.find(vpage);
    if (it == table_it->second.end()) {
      continue;
    }
    Allocation& allocation = it->second;
    // The dead device's own IOMMU was already scrubbed by the bus; surviving
    // grantees still hold live mappings into frames about to be reused.
    for (const auto& [grantee, access] : allocation.grants) {
      auto entries = EntriesFor(allocation, vpage, allocation.pages, Access::kRead);
      SendDirective(grantee, pasid, std::move(entries), /*unmap=*/true, [](Result<void>) {});
    }
    stats().GetCounter("stranded_grants_reclaimed").Increment(allocation.grants.size());
    ReleaseAllocation(pasid, it);
    stats().GetCounter("permanent_reclaims").Increment();
  }
  if (tracer().enabled() && (grants_dropped > 0 || !owned.empty())) {
    TraceEvent("permanent-reclaim", "device=" + std::to_string(device.value()) +
                                        " allocations=" + std::to_string(owned.size()) +
                                        " grants=" + std::to_string(grants_dropped));
  }
}

}  // namespace lastcpu::memdev
