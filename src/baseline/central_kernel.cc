#include "src/baseline/central_kernel.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::baseline {

CentralKernel::CentralKernel(sim::Simulator* simulator, mem::PhysicalMemory* memory,
                             CentralKernelConfig config, sim::TraceLog* trace)
    : simulator_(simulator),
      allocator_(memory->num_frames()),
      memory_(memory),
      config_(config),
      tracer_(trace, simulator, "kernel"),
      core_busy_until_(config.cores) {
  LASTCPU_CHECK(simulator != nullptr && memory != nullptr, "kernel needs simulator and memory");
  LASTCPU_CHECK(config.cores > 0, "kernel needs at least one core");
}

void CentralKernel::RegisterDevice(DeviceId device, iommu::Iommu* iommu) {
  LASTCPU_CHECK(iommu != nullptr, "registering device without IOMMU");
  devices_[device] = iommu;
}

sim::SpanId CentralKernel::BeginOpSpan(
    std::string_view name, std::initializer_list<std::pair<std::string_view, uint64_t>> fields) {
  if (!tracer_.enabled()) {
    return 0;
  }
  std::string detail;
  for (const auto& [key, value] : fields) {
    if (!detail.empty()) {
      detail += ' ';
    }
    detail.append(key).append("=").append(std::to_string(value));
  }
  return tracer_.BeginSpan(name, 0, detail);
}

iommu::Iommu* CentralKernel::FindIommu(DeviceId device) {
  auto it = devices_.find(device);
  return it == devices_.end() ? nullptr : it->second;
}

sim::Duration CentralKernel::CrossSegmentExtra(DeviceId requester) {
  if (config_.cross_segment_interrupt_extra == sim::Duration::Zero() ||
      IsReservedDevice(requester) || SegmentOf(requester) == 0) {
    return sim::Duration::Zero();
  }
  stats_.GetCounter("cross_segment_interrupts").Increment();
  return config_.cross_segment_interrupt_extra;
}

void CentralKernel::RunOnCpu(sim::Duration service, std::function<void()> handler,
                             sim::SpanId parent, sim::Duration interrupt_extra) {
  // The device raises an interrupt; after delivery the op joins the run
  // queue of the least-loaded core.
  sim::SimTime arrival = simulator_->Now() + config_.interrupt_cost + interrupt_extra;
  auto core = std::min_element(core_busy_until_.begin(), core_busy_until_.end());
  sim::SimTime start = std::max(arrival, *core);
  sim::SimTime done = start + config_.syscall_entry + service;
  *core = done;
  // Child span: interrupt delivery + run-queue wait + handler occupancy.
  sim::SpanId cpu_span = tracer_.BeginSpan("on-cpu", parent);
  stats_.GetHistogram("queue_wait").Record(start - arrival);
  op_latency_.Record(done - simulator_->Now());
  simulator_->ScheduleAt(done, [this, cpu_span, parent, handler = std::move(handler)] {
    ++ops_completed_;
    handler();
    tracer_.EndSpan(cpu_span);
    tracer_.EndSpan(parent);
  });
}

void CentralKernel::SimulateKernelFailover(sim::Duration blackout, Callback<void> done) {
  // Panic: every core stops serving. Queued and newly arriving operations
  // wait out the reboot in the run queue (RunOnCpu naturally serializes
  // behind the pushed-out core clocks).
  sim::SimTime up_again = simulator_->Now() + blackout;
  for (sim::SimTime& core : core_busy_until_) {
    core = std::max(core, up_again);
  }
  stats_.GetCounter("kernel_restarts").Increment();
  // Warm reboot: the tables survive in kernel memory, but the kernel re-walks
  // every live entry (consistency check against the IOMMU state it also owns)
  // before admitting syscalls — one mm_service each, serial on the boot core.
  uint64_t entries = 0;
  for (const auto& [pasid, table] : tables_) {
    entries += table.size();
  }
  stats_.GetCounter("kernel_rebuild_entries").Increment(entries);
  sim::Duration rebuild = config_.syscall_entry + config_.mm_service * entries;
  core_busy_until_.front() = up_again + rebuild;
  simulator_->ScheduleAt(up_again + rebuild,
                         [done = std::move(done)]() mutable { done(OkStatus()); });
}

bool CentralKernel::Overlaps(const Table& table, uint64_t vpage, uint64_t pages) {
  auto next = table.lower_bound(vpage);
  if (next != table.end() && next->first < vpage + pages) {
    return true;
  }
  if (next != table.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second.pages > vpage) {
      return true;
    }
  }
  return false;
}

CentralKernel::Allocation* CentralKernel::FindCovering(Pasid pasid, VirtAddr vaddr,
                                                       uint64_t bytes) {
  auto table_it = tables_.find(pasid);
  if (table_it == tables_.end()) {
    return nullptr;
  }
  auto next = table_it->second.upper_bound(vaddr.page());
  if (next == table_it->second.begin()) {
    return nullptr;
  }
  auto it = std::prev(next);
  uint64_t want_end = PageCeil(vaddr.raw + bytes) >> kPageShift;
  if (vaddr.page() >= it->first && want_end <= it->first + it->second.pages) {
    return &it->second;
  }
  return nullptr;
}

Status CentralKernel::MapRange(DeviceId device, Pasid pasid, uint64_t vpage, uint64_t pframe,
                               uint64_t pages, Access access) {
  iommu::Iommu* iommu = FindIommu(device);
  if (iommu == nullptr) {
    return NotFound("unknown device");
  }
  iommu::ProgrammingKey key;  // the kernel is the privileged mapper here
  for (uint64_t i = 0; i < pages; ++i) {
    Status mapped = iommu->Map(key, pasid, vpage + i, pframe + i, access);
    if (!mapped.ok()) {
      return mapped;
    }
  }
  return OkStatus();
}

void CentralKernel::UnmapRange(DeviceId device, Pasid pasid, uint64_t vpage, uint64_t pages) {
  iommu::Iommu* iommu = FindIommu(device);
  if (iommu == nullptr) {
    return;
  }
  iommu::ProgrammingKey key;
  for (uint64_t i = 0; i < pages; ++i) {
    (void)iommu->Unmap(key, pasid, vpage + i);
  }
}

uint64_t CentralKernel::AllocatedBytes(Pasid pasid) const {
  auto it = bytes_allocated_.find(pasid);
  return it == bytes_allocated_.end() ? 0 : it->second;
}

void CentralKernel::AllocMemory(DeviceId requester, Pasid pasid, uint64_t bytes,
                                Callback<VirtAddr> done) {
  LASTCPU_CHECK(done != nullptr, "alloc without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service = config_.mm_service + config_.per_page_cost * pages;
  sim::SpanId span = BeginOpSpan("Alloc", {{"pasid", pasid.value()}, {"bytes", bytes}});
  RunOnCpu(service, [this, requester, pasid, bytes, pages, done = std::move(done)] {
    if (bytes == 0) {
      done(InvalidArgument("zero-byte allocation"));
      return;
    }
    Table& table = tables_[pasid];
    auto [bump, inserted] = next_vpage_.try_emplace(pasid, config_.va_bump_base >> kPageShift);
    (void)inserted;
    uint64_t vpage = bump->second;
    while (Overlaps(table, vpage, pages)) {
      vpage += pages;
    }
    auto frame = allocator_.Allocate(pages);
    if (!frame.ok()) {
      done(frame.status());
      return;
    }
    bump->second = vpage + pages;
    for (uint64_t i = 0; i < pages; ++i) {
      memory_->ZeroFrame(*frame + i);
    }
    Status mapped = MapRange(requester, pasid, vpage, *frame, pages, Access::kReadWrite);
    if (!mapped.ok()) {
      LASTCPU_CHECK(allocator_.Free(*frame, pages).ok(), "allocator out of sync");
      done(mapped);
      return;
    }
    Allocation allocation;
    allocation.vaddr = VirtAddr(vpage << kPageShift);
    allocation.pages = pages;
    allocation.first_frame = *frame;
    allocation.owner = requester;
    table.emplace(vpage, allocation);
    bytes_allocated_[pasid] += pages * kPageSize;
    stats_.GetCounter("allocations").Increment();
    done(allocation.vaddr);
  }, span, CrossSegmentExtra(requester));
}

void CentralKernel::FreeMemory(DeviceId requester, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                               Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "free without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service = config_.mm_service + config_.per_page_cost * pages;
  sim::SpanId span = BeginOpSpan("Free", {{"pasid", pasid.value()}, {"bytes", bytes}});
  RunOnCpu(service, [this, requester, pasid, vaddr, pages, done = std::move(done)] {
    auto table_it = tables_.find(pasid);
    if (table_it == tables_.end()) {
      done(NotFound("no allocations for PASID"));
      return;
    }
    auto it = table_it->second.find(vaddr.page());
    if (it == table_it->second.end() || it->second.pages != pages) {
      done(NotFound("no matching allocation"));
      return;
    }
    if (it->second.owner != requester) {
      done(PermissionDenied("only the owner may free an allocation"));
      return;
    }
    UnmapRange(it->second.owner, pasid, it->first, pages);
    for (const auto& [grantee, access] : it->second.grants) {
      UnmapRange(grantee, pasid, it->first, pages);
    }
    LASTCPU_CHECK(allocator_.Free(it->second.first_frame, pages).ok(), "allocator out of sync");
    bytes_allocated_[pasid] -= pages * kPageSize;
    table_it->second.erase(it);
    stats_.GetCounter("frees").Increment();
    done(OkStatus());
  }, span, CrossSegmentExtra(requester));
}

void CentralKernel::AllocMemoryBatch(DeviceId requester, Pasid pasid, uint64_t bytes,
                                     uint32_t count, Callback<std::vector<VirtAddr>> done) {
  LASTCPU_CHECK(done != nullptr, "batch alloc without callback");
  uint64_t pages = PagesForBytes(bytes);
  // One interrupt + one syscall entry for the whole batch; the handler still
  // does per-allocation work.
  sim::Duration service = (config_.mm_service + config_.per_page_cost * pages) * count;
  sim::SpanId span = BeginOpSpan("AllocBatch", {{"pasid", pasid.value()}, {"count", count}});
  RunOnCpu(service, [this, requester, pasid, bytes, pages, count, done = std::move(done)] {
    if (bytes == 0 || count == 0) {
      done(InvalidArgument("empty batch allocation"));
      return;
    }
    std::vector<VirtAddr> vaddrs;
    vaddrs.reserve(count);
    auto rollback = [this, &vaddrs, pasid, pages, requester] {
      for (VirtAddr vaddr : vaddrs) {
        auto table_it = tables_.find(pasid);
        if (table_it == tables_.end()) {
          break;
        }
        auto it = table_it->second.find(vaddr.page());
        if (it == table_it->second.end()) {
          continue;
        }
        UnmapRange(requester, pasid, it->first, it->second.pages);
        LASTCPU_CHECK(allocator_.Free(it->second.first_frame, it->second.pages).ok(),
                      "allocator out of sync");
        bytes_allocated_[pasid] -= it->second.pages * kPageSize;
        table_it->second.erase(it);
      }
    };
    for (uint32_t i = 0; i < count; ++i) {
      Table& table = tables_[pasid];
      auto [bump, inserted] = next_vpage_.try_emplace(pasid, config_.va_bump_base >> kPageShift);
      (void)inserted;
      uint64_t vpage = bump->second;
      while (Overlaps(table, vpage, pages)) {
        vpage += pages;
      }
      auto frame = allocator_.Allocate(pages);
      if (!frame.ok()) {
        rollback();
        done(frame.status());
        return;
      }
      bump->second = vpage + pages;
      for (uint64_t p = 0; p < pages; ++p) {
        memory_->ZeroFrame(*frame + p);
      }
      Status mapped = MapRange(requester, pasid, vpage, *frame, pages, Access::kReadWrite);
      if (!mapped.ok()) {
        LASTCPU_CHECK(allocator_.Free(*frame, pages).ok(), "allocator out of sync");
        rollback();
        done(mapped);
        return;
      }
      Allocation allocation;
      allocation.vaddr = VirtAddr(vpage << kPageShift);
      allocation.pages = pages;
      allocation.first_frame = *frame;
      allocation.owner = requester;
      table.emplace(vpage, allocation);
      bytes_allocated_[pasid] += pages * kPageSize;
      stats_.GetCounter("allocations").Increment();
      vaddrs.push_back(allocation.vaddr);
    }
    stats_.GetCounter("batch_allocs").Increment();
    done(std::move(vaddrs));
  }, span, CrossSegmentExtra(requester));
}

void CentralKernel::FreeMemoryBatch(DeviceId requester, Pasid pasid, std::vector<VirtAddr> vaddrs,
                                    uint64_t bytes, Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "batch free without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service =
      (config_.mm_service + config_.per_page_cost * pages) * static_cast<uint32_t>(vaddrs.size());
  sim::SpanId span =
      BeginOpSpan("FreeBatch", {{"pasid", pasid.value()}, {"count", vaddrs.size()}});
  RunOnCpu(service, [this, requester, pasid, vaddrs = std::move(vaddrs), pages,
                     done = std::move(done)] {
    if (vaddrs.empty()) {
      done(InvalidArgument("empty batch free"));
      return;
    }
    auto table_it = tables_.find(pasid);
    if (table_it == tables_.end()) {
      done(NotFound("no allocations for PASID"));
      return;
    }
    // Validate everything before freeing anything: the batch is one unit.
    for (VirtAddr vaddr : vaddrs) {
      auto it = table_it->second.find(vaddr.page());
      if (it == table_it->second.end() || it->second.pages != pages) {
        done(NotFound("no matching allocation in batch"));
        return;
      }
      if (it->second.owner != requester) {
        done(PermissionDenied("only the owner may free an allocation"));
        return;
      }
    }
    for (VirtAddr vaddr : vaddrs) {
      auto it = table_it->second.find(vaddr.page());
      UnmapRange(it->second.owner, pasid, it->first, pages);
      for (const auto& [grantee, access] : it->second.grants) {
        UnmapRange(grantee, pasid, it->first, pages);
      }
      LASTCPU_CHECK(allocator_.Free(it->second.first_frame, pages).ok(), "allocator out of sync");
      bytes_allocated_[pasid] -= pages * kPageSize;
      table_it->second.erase(it);
      stats_.GetCounter("frees").Increment();
    }
    stats_.GetCounter("batch_frees").Increment();
    done(OkStatus());
  }, span, CrossSegmentExtra(requester));
}

void CentralKernel::Grant(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                          DeviceId grantee, Access access, Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "grant without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service = config_.mm_service + config_.per_page_cost * pages;
  sim::SpanId span =
      BeginOpSpan("Grant", {{"pasid", pasid.value()}, {"grantee", grantee.value()}});
  RunOnCpu(service, [this, owner, pasid, vaddr, bytes, pages, grantee, access,
                     done = std::move(done)] {
    Allocation* allocation = FindCovering(pasid, vaddr, bytes);
    if (allocation == nullptr) {
      done(NotFound("grant range is not an allocated region"));
      return;
    }
    if (allocation->owner != owner) {
      done(PermissionDenied("only the owner may grant a region"));
      return;
    }
    if (!AccessCovers(allocation->owner_access, access)) {
      done(PermissionDenied("grant exceeds the owner's access"));
      return;
    }
    uint64_t page_delta = vaddr.page() - allocation->vaddr.page();
    Status mapped = MapRange(grantee, pasid, vaddr.page(),
                             allocation->first_frame + page_delta, pages, access);
    if (!mapped.ok()) {
      done(mapped);
      return;
    }
    allocation->grants.emplace_back(grantee, access);
    stats_.GetCounter("grants").Increment();
    done(OkStatus());
  }, span, CrossSegmentExtra(owner));
}

void CentralKernel::Revoke(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                           DeviceId grantee, Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "revoke without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service = config_.mm_service + config_.per_page_cost * pages;
  sim::SpanId span =
      BeginOpSpan("Revoke", {{"pasid", pasid.value()}, {"grantee", grantee.value()}});
  RunOnCpu(service, [this, owner, pasid, vaddr, bytes, pages, grantee, done = std::move(done)] {
    Allocation* allocation = FindCovering(pasid, vaddr, bytes);
    if (allocation == nullptr) {
      done(NotFound("revoke range is not an allocated region"));
      return;
    }
    if (allocation->owner != owner) {
      done(PermissionDenied("only the owner may revoke a grant"));
      return;
    }
    auto it = std::find_if(allocation->grants.begin(), allocation->grants.end(),
                           [&](const auto& grant) { return grant.first == grantee; });
    if (it == allocation->grants.end()) {
      done(NotFound("no such grant"));
      return;
    }
    allocation->grants.erase(it);
    UnmapRange(grantee, pasid, vaddr.page(), pages);
    done(OkStatus());
  }, span, CrossSegmentExtra(owner));
}

void CentralKernel::Teardown(Pasid pasid, Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "teardown without callback");
  uint64_t pages = 0;
  auto table_it = tables_.find(pasid);
  if (table_it != tables_.end()) {
    for (const auto& [vpage, allocation] : table_it->second) {
      pages += allocation.pages * (1 + allocation.grants.size());
    }
  }
  sim::Duration service = config_.mm_service + config_.per_page_cost * pages;
  sim::SpanId span = BeginOpSpan("Teardown", {{"pasid", pasid.value()}});
  RunOnCpu(service, [this, pasid, done = std::move(done)] {
    auto it = tables_.find(pasid);
    if (it != tables_.end()) {
      for (auto& [vpage, allocation] : it->second) {
        UnmapRange(allocation.owner, pasid, vpage, allocation.pages);
        for (const auto& [grantee, access] : allocation.grants) {
          UnmapRange(grantee, pasid, vpage, allocation.pages);
        }
        LASTCPU_CHECK(allocator_.Free(allocation.first_frame, allocation.pages).ok(),
                      "allocator out of sync");
      }
      tables_.erase(it);
    }
    bytes_allocated_.erase(pasid);
    next_vpage_.erase(pasid);
    stats_.GetCounter("teardowns").Increment();
    done(OkStatus());
  }, span);
}

void CentralKernel::MediateIo(sim::Duration work, std::function<void()> done) {
  LASTCPU_CHECK(done != nullptr, "mediation without callback");
  sim::SpanId span = BeginOpSpan("MediateIo", {});
  RunOnCpu(config_.io_service + work, std::move(done), span);
}

// --- device supervision ------------------------------------------------------

bool CentralKernel::IsQuarantined(DeviceId device) const {
  auto it = supervision_.find(device);
  return it != supervision_.end() && it->second.state == Supervision::State::kQuarantined;
}

uint32_t CentralKernel::RestartAttempts(DeviceId device) const {
  auto it = supervision_.find(device);
  return it == supervision_.end() ? 0 : it->second.attempts;
}

sim::Duration CentralKernel::RestartBackoff(uint32_t attempt) const {
  if (attempt == 0) {
    return sim::Duration::Zero();
  }
  double nanos = static_cast<double>(config_.restart_backoff.nanos());
  for (uint32_t i = 1; i < attempt; ++i) {
    nanos *= config_.backoff_multiplier;
  }
  return sim::Duration::Nanos(static_cast<uint64_t>(nanos));
}

void CentralKernel::CancelSupervisionTimers(Supervision& sup) {
  sup.pending_pulse.Cancel();
  sup.deadline.Cancel();
}

void CentralKernel::ReportDeviceFailure(DeviceId device) {
  Supervision& sup = supervision_[device];
  if (sup.state == Supervision::State::kQuarantined || sup.episode_open) {
    stats_.GetCounter("duplicate_failure_reports").Increment();
    return;
  }
  sup.episode_open = true;
  // The failure interrupt traps to the kernel; the supervision policy is a
  // software handler like everything else in this design.
  sim::SpanId span = BeginOpSpan("DeviceFailure", {{"device", device.value()}});
  RunOnCpu(config_.io_service, [this, device] {
    auto it = supervision_.find(device);
    if (it == supervision_.end()) {
      return;
    }
    Supervision& rec = it->second;
    stats_.GetCounter("device_failures").Increment();
    if (config_.max_restart_attempts == 0) {
      rec.episode_open = false;  // unsupervised: fire-and-forget
      if (reset_handler_) {
        reset_handler_(device);
      }
      return;
    }
    sim::SimTime now = simulator_->Now();
    rec.recent_failures.push_back(now);
    while (!rec.recent_failures.empty() &&
           now - rec.recent_failures.front() > config_.crash_loop_window) {
      rec.recent_failures.pop_front();
    }
    CancelSupervisionTimers(rec);
    rec.state = Supervision::State::kRestarting;
    if (config_.crash_loop_threshold > 0 &&
        rec.recent_failures.size() >= config_.crash_loop_threshold) {
      QuarantineDevice(device, rec, "crash loop");
      return;
    }
    if (rec.attempts >= config_.max_restart_attempts) {
      QuarantineDevice(device, rec, "restart policy exhausted");
      return;
    }
    ScheduleRestartAttempt(device, rec);
  }, span, CrossSegmentExtra(device));
}

void CentralKernel::ScheduleRestartAttempt(DeviceId device, Supervision& sup) {
  uint32_t attempt = sup.attempts++;
  sim::Duration backoff = RestartBackoff(attempt);
  if (backoff == sim::Duration::Zero()) {
    PulseDevice(device);
    return;
  }
  sup.pending_pulse = sim::ScopedEvent(
      simulator_, simulator_->Schedule(backoff, [this, device] { PulseDevice(device); }));
}

void CentralKernel::PulseDevice(DeviceId device) {
  auto it = supervision_.find(device);
  if (it == supervision_.end() || it->second.state != Supervision::State::kRestarting) {
    return;
  }
  it->second.pending_pulse.Release();  // it just fired; nothing left to cancel
  stats_.GetCounter("supervisor_restarts").Increment();
  it->second.deadline = sim::ScopedEvent(
      simulator_, simulator_->Schedule(config_.restart_timeout,
                                       [this, device] { OnRestartDeadline(device); }));
  if (reset_handler_) {
    reset_handler_(device);
  }
}

void CentralKernel::OnRestartDeadline(DeviceId device) {
  auto it = supervision_.find(device);
  if (it == supervision_.end() || it->second.state != Supervision::State::kRestarting) {
    return;
  }
  Supervision& sup = it->second;
  sup.deadline.Release();  // it just fired; nothing left to cancel
  stats_.GetCounter("supervisor_restart_timeouts").Increment();
  // The timer interrupt traps to the kernel for the next decision.
  sim::SpanId span = BeginOpSpan("RestartDeadline", {{"device", device.value()}});
  RunOnCpu(config_.io_service, [this, device] {
    auto sup_it = supervision_.find(device);
    if (sup_it == supervision_.end() ||
        sup_it->second.state != Supervision::State::kRestarting) {
      return;
    }
    Supervision& rec = sup_it->second;
    if (rec.attempts >= config_.max_restart_attempts) {
      QuarantineDevice(device, rec, "no alive signal after reset pulses");
      return;
    }
    ScheduleRestartAttempt(device, rec);
  }, span);
}

void CentralKernel::OnDeviceAlive(DeviceId device) {
  auto it = supervision_.find(device);
  if (it == supervision_.end() || it->second.state == Supervision::State::kQuarantined) {
    return;
  }
  Supervision& sup = it->second;
  CancelSupervisionTimers(sup);
  bool recovered = sup.state == Supervision::State::kRestarting;
  sup.attempts = 0;
  sup.episode_open = false;
  sup.state = Supervision::State::kHealthy;
  if (recovered) {
    stats_.GetCounter("supervisor_recoveries").Increment();
  }
}

void CentralKernel::QuarantineDevice(DeviceId device, Supervision& sup,
                                     const std::string& reason) {
  sup.state = Supervision::State::kQuarantined;
  CancelSupervisionTimers(sup);
  stats_.GetCounter("supervisor_quarantines").Increment();
  ReclaimDevice(device);
  if (quarantine_handler_) {
    quarantine_handler_(device, reason);
  }
}

void CentralKernel::ReclaimDevice(DeviceId device) {
  // Runs inside a kernel handler already; the page work is billed like a
  // teardown (per_page_cost via the caller's handler time is approximated by
  // an extra mediation trip proportional to the reclaimed pages).
  uint64_t pages_reclaimed = 0;
  for (auto& [pasid, table] : tables_) {
    std::vector<uint64_t> owned;
    for (auto& [vpage, allocation] : table) {
      auto removed = std::remove_if(allocation.grants.begin(), allocation.grants.end(),
                                    [&](const auto& grant) { return grant.first == device; });
      if (removed != allocation.grants.end()) {
        stats_.GetCounter("stranded_grants_reclaimed")
            .Increment(static_cast<uint64_t>(allocation.grants.end() - removed));
        allocation.grants.erase(removed, allocation.grants.end());
      }
      if (allocation.owner == device) {
        owned.push_back(vpage);
      }
    }
    for (uint64_t vpage : owned) {
      auto it = table.find(vpage);
      if (it == table.end()) {
        continue;
      }
      Allocation& allocation = it->second;
      for (const auto& [grantee, access] : allocation.grants) {
        UnmapRange(grantee, pasid, vpage, allocation.pages);
      }
      pages_reclaimed += allocation.pages;
      bytes_allocated_[pasid] -= allocation.pages * kPageSize;
      LASTCPU_CHECK(allocator_.Free(allocation.first_frame, allocation.pages).ok(),
                    "allocator out of sync during reclaim");
      table.erase(it);
      stats_.GetCounter("permanent_reclaims").Increment();
    }
  }
  if (pages_reclaimed > 0) {
    // Bill the page-table scrubbing as handler time on the CPU.
    RunOnCpu(config_.per_page_cost * pages_reclaimed, [] {});
  }
}

}  // namespace lastcpu::baseline
