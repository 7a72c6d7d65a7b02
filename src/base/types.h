// Strong fundamental types shared by every lastcpu module.
//
// The emulator models hardware identifiers (device ids, address-space ids,
// physical/virtual addresses). Mixing those up is the classic source of
// simulator bugs, so each one is a distinct type: ids are tag-parameterized
// integer wrappers, addresses are explicit structs with arithmetic helpers.
#ifndef SRC_BASE_TYPES_H_
#define SRC_BASE_TYPES_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace lastcpu {

// A typed integer id. `Tag` makes ids of different kinds non-interchangeable.
template <typename Tag, typename Int = uint32_t>
class TypedId {
 public:
  using value_type = Int;

  constexpr TypedId() = default;
  constexpr explicit TypedId(Int value) : value_(value) {}

  constexpr Int value() const { return value_; }
  constexpr bool valid() const { return value_ != kInvalidValue; }

  static constexpr TypedId Invalid() { return TypedId(kInvalidValue); }

  friend constexpr auto operator<=>(TypedId, TypedId) = default;

 private:
  static constexpr Int kInvalidValue = static_cast<Int>(-1);
  Int value_ = kInvalidValue;
};

struct DeviceIdTag {};
struct PasidTag {};
struct RequestIdTag {};
struct InstanceIdTag {};
struct TokenIdTag {};
struct AppIdTag {};

// Identifies a hardware device attached to the system bus / fabric.
using DeviceId = TypedId<DeviceIdTag>;
// Process Address Space ID: identifies one application's virtual address
// space, selected per memory operation (PCIe PASID-like; see paper Sec. 2.3).
using Pasid = TypedId<PasidTag>;
// Correlates a control-plane request with its response.
using RequestId = TypedId<RequestIdTag, uint64_t>;
// One opened instance (context) of a device service.
using InstanceId = TypedId<InstanceIdTag, uint64_t>;
// An authorization token handle (see auth module).
using TokenId = TypedId<TokenIdTag, uint64_t>;
// One distributed application (a virtual address space + its components).
using AppId = TypedId<AppIdTag>;

// The broadcast destination: delivered to every live device on the bus.
inline constexpr DeviceId kBroadcastDevice = DeviceId(0xFFFFFFFEu);
// The system bus itself, addressable as a privileged pseudo-device.
inline constexpr DeviceId kBusDevice = DeviceId(0xFFFFFFFDu);

// --- rack topology: segment-qualified device ids -----------------------------
//
// A rack is a set of chassis ("bus segments"), each its own broadcast domain
// on the control plane. The segment a device sits on is encoded in the high
// bits of its DeviceId, so routing never needs a lookup table: segment-0
// devices keep the small flat ids of the single-chassis machine, which keeps
// every pre-rack configuration bit-identical. Ids at or above
// kFirstReservedDeviceId (broadcast, bus, invalid) are pseudo-devices with no
// segment; the bus/router has a presence on every segment.
inline constexpr uint32_t kSegmentShift = 20;
inline constexpr uint32_t kFirstReservedDeviceId = 0xFF000000u;

constexpr bool IsReservedDevice(DeviceId id) { return id.value() >= kFirstReservedDeviceId; }

constexpr uint32_t SegmentOf(DeviceId id) {
  return IsReservedDevice(id) ? 0 : id.value() >> kSegmentShift;
}

// The id of device `local` on `segment`. Segment 0 ids coincide with the flat
// pre-rack numbering.
constexpr DeviceId MakeSegmentDeviceId(uint32_t segment, uint32_t local) {
  return DeviceId((segment << kSegmentShift) | local);
}

constexpr uint32_t LocalDeviceId(DeviceId id) {
  return id.value() & ((uint32_t{1} << kSegmentShift) - 1);
}

// Page geometry. 4 KiB pages throughout, like the IOMMUs we model.
inline constexpr uint64_t kPageShift = 12;
inline constexpr uint64_t kPageSize = uint64_t{1} << kPageShift;
inline constexpr uint64_t kPageMask = kPageSize - 1;

constexpr uint64_t PageFloor(uint64_t addr) { return addr & ~kPageMask; }
constexpr uint64_t PageCeil(uint64_t addr) { return (addr + kPageMask) & ~kPageMask; }
constexpr uint64_t PagesForBytes(uint64_t bytes) { return PageCeil(bytes) >> kPageShift; }

// A physical (fabric/DRAM) address.
struct PhysAddr {
  uint64_t raw = 0;

  constexpr PhysAddr() = default;
  constexpr explicit PhysAddr(uint64_t value) : raw(value) {}

  constexpr uint64_t frame() const { return raw >> kPageShift; }
  constexpr uint64_t offset() const { return raw & kPageMask; }
  constexpr PhysAddr operator+(uint64_t delta) const { return PhysAddr(raw + delta); }

  friend constexpr auto operator<=>(PhysAddr, PhysAddr) = default;
};

// A virtual address within some application's PASID-selected address space.
struct VirtAddr {
  uint64_t raw = 0;

  constexpr VirtAddr() = default;
  constexpr explicit VirtAddr(uint64_t value) : raw(value) {}

  constexpr uint64_t page() const { return raw >> kPageShift; }
  constexpr uint64_t offset() const { return raw & kPageMask; }
  constexpr VirtAddr operator+(uint64_t delta) const { return VirtAddr(raw + delta); }

  friend constexpr auto operator<=>(VirtAddr, VirtAddr) = default;
};

// Access permissions on a mapping, combinable as a bitmask.
enum class Access : uint8_t {
  kNone = 0,
  kRead = 1 << 0,
  kWrite = 1 << 1,
  kExecute = 1 << 2,
  kReadWrite = kRead | kWrite,
};

constexpr Access operator|(Access a, Access b) {
  return static_cast<Access>(static_cast<uint8_t>(a) | static_cast<uint8_t>(b));
}
constexpr Access operator&(Access a, Access b) {
  return static_cast<Access>(static_cast<uint8_t>(a) & static_cast<uint8_t>(b));
}
// The largest valid Access bitmask; the bus codec rejects bytes above it.
constexpr Access EnumMax(Access) { return Access::kRead | Access::kWrite | Access::kExecute; }
// True if `granted` covers every right in `wanted`.
constexpr bool AccessCovers(Access granted, Access wanted) {
  return (static_cast<uint8_t>(granted) & static_cast<uint8_t>(wanted)) ==
         static_cast<uint8_t>(wanted);
}

std::string ToString(Access access);

}  // namespace lastcpu

namespace std {

template <typename Tag, typename Int>
struct hash<lastcpu::TypedId<Tag, Int>> {
  size_t operator()(lastcpu::TypedId<Tag, Int> id) const noexcept {
    return std::hash<Int>{}(id.value());
  }
};

template <>
struct hash<lastcpu::PhysAddr> {
  size_t operator()(lastcpu::PhysAddr a) const noexcept { return std::hash<uint64_t>{}(a.raw); }
};

template <>
struct hash<lastcpu::VirtAddr> {
  size_t operator()(lastcpu::VirtAddr a) const noexcept { return std::hash<uint64_t>{}(a.raw); }
};

}  // namespace std

#endif  // SRC_BASE_TYPES_H_
