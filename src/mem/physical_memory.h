// The machine's DRAM: a flat physical address space with byte-level access.
//
// All data-plane traffic (VIRTIO rings, file contents, KVS records) ultimately
// lands here, always via IOMMU-translated accesses — no component other than
// the memory controller touches physical addresses directly.
//
// The backing store is one flat calloc'd buffer. At DRAM sizes the host
// allocator serves it from a fresh anonymous mapping, so construction writes
// nothing: every byte reads as zero until first written, and host memory
// becomes resident only for the pages actually touched.
#ifndef SRC_MEM_PHYSICAL_MEMORY_H_
#define SRC_MEM_PHYSICAL_MEMORY_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>

#include "src/base/status.h"
#include "src/base/types.h"

namespace lastcpu::mem {

class PhysicalMemory {
 public:
  // Size is rounded up to whole pages.
  explicit PhysicalMemory(uint64_t bytes);
  // Devices and the fabric hold its address.
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint64_t size_bytes() const { return size_bytes_; }
  uint64_t num_frames() const { return size_bytes_ >> kPageShift; }

  // Bounds-checked raw access. Out-of-range is a wiring bug, so it aborts
  // rather than returning a status: hardware cannot address past the DIMMs.
  void Write(PhysAddr addr, std::span<const uint8_t> data);
  void Read(PhysAddr addr, std::span<uint8_t> out) const;

  // Zero-fills a frame (done on allocation so applications never observe
  // another application's stale data). Frames never written read as zero
  // without it.
  void ZeroFrame(uint64_t frame);

  uint8_t ReadByte(PhysAddr addr) const;
  void WriteByte(PhysAddr addr, uint8_t value);

  uint64_t ReadU64(PhysAddr addr) const;
  void WriteU64(PhysAddr addr, uint64_t value);

 private:
  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  // True if [addr, addr + len) lies inside the memory.
  bool InRange(uint64_t addr, uint64_t len) const {
    return addr <= size_bytes_ && len <= size_bytes_ - addr;
  }

  uint64_t size_bytes_;
  std::unique_ptr<uint8_t[], FreeDeleter> storage_;
};

}  // namespace lastcpu::mem

#endif  // SRC_MEM_PHYSICAL_MEMORY_H_
