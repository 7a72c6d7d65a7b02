// The system-management-bus protocol (control plane).
//
// Every control operation in the CPU-less machine — discovery, service open,
// memory allocation, IOMMU mapping directives, grants, failure notification,
// task lifecycle — is one of these messages. The paper (Sec. 2.2) requires the
// protocol to be "not more computationally intensive ... than many existing
// control protocols such as AHCI/EHCI"; all payloads here are plain data with
// a compact binary codec (see codec.h).
//
// Adding a message type takes one row in LASTCPU_BUS_MESSAGES and its payload
// struct with a `Fields` line listing the members in wire order (empty structs
// need none). The codec, names and response classification follow from those.
#ifndef SRC_PROTO_MESSAGE_H_
#define SRC_PROTO_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/sim/trace_context.h"

namespace lastcpu::proto {

// Kinds of resources a self-managing device can expose as services (paper
// Sec. 2.1: "physical memory, FPGA blocks, GPU cores, storage space, etc.").
enum class ServiceType : uint8_t {
  kMemory = 0,    // physical memory allocation (the memory controller)
  kFile = 1,      // filesystem on a smart SSD
  kBlock = 2,     // raw block access on a smart SSD
  kNetwork = 3,   // packet / socket endpoints on a smart NIC
  kCompute = 4,   // offload engine (FPGA blocks, embedded cores)
  kLoader = 5,    // binary image upload (paper Sec. 2.1)
  kAuth = 6,      // access-control / login service (paper Sec. 4)
  kLog = 7,       // append-only log for system maintenance (paper Sec. 4)
  kKeyValue = 8,  // application-level KVS endpoint (paper Sec. 3)
};

// The largest valid ServiceType; the codec rejects bytes above it.
constexpr ServiceType EnumMax(ServiceType) { return ServiceType::kKeyValue; }

std::string_view ServiceTypeName(ServiceType type);

// Advertises one service offered by a device, returned by discovery.
struct ServiceDescriptor {
  DeviceId provider;
  ServiceType type = ServiceType::kMemory;
  std::string name;           // e.g. "flashfs", "kv-frontend"
  uint32_t max_instances = 0; // 0 = unlimited

  static auto Fields(auto& p) { return std::tie(p.provider, p.type, p.name, p.max_instances); }
  friend bool operator==(const ServiceDescriptor&, const ServiceDescriptor&) = default;
};

// One virtual->physical page mapping, as programmed into an IOMMU.
struct MapEntry {
  uint64_t vpage = 0;   // virtual page number
  uint64_t pframe = 0;  // physical frame number
  Access access = Access::kNone;

  static auto Fields(auto& p) { return std::tie(p.vpage, p.pframe, p.access); }
  friend bool operator==(const MapEntry&, const MapEntry&) = default;
};

// ---------------------------------------------------------------------------
// Payloads. Groups follow the paper's lifecycle: init -> discovery -> open ->
// memory/grant -> run -> errors -> teardown.
// ---------------------------------------------------------------------------

// Device -> bus after self-test (Sec. 2.2 "System Initialization").
struct AliveAnnounce {
  std::string device_name;
  std::vector<ServiceDescriptor> services;

  static auto Fields(auto& p) { return std::tie(p.device_name, p.services); }
  friend bool operator==(const AliveAnnounce&, const AliveAnnounce&) = default;
};

// Broadcast: "which device offers a service of this type / owning this
// resource?" (Fig. 2 step 1; SSDP-like).
struct DiscoverRequest {
  ServiceType type = ServiceType::kMemory;
  std::string resource;  // optional, e.g. a file name the service must own

  static auto Fields(auto& p) { return std::tie(p.type, p.resource); }
  friend bool operator==(const DiscoverRequest&, const DiscoverRequest&) = default;
};

// Unicast answer from a device that can provide the service (Fig. 2 step 2).
struct DiscoverResponse {
  ServiceDescriptor descriptor;

  static auto Fields(auto& p) { return std::tie(p.descriptor); }
  friend bool operator==(const DiscoverResponse&, const DiscoverResponse&) = default;
};

// Open an instance (context) of a service (Fig. 2 step 3). Carries the
// authorization token (Sec. 3: "including an authorization token").
struct OpenRequest {
  std::string service_name;
  std::string resource;
  uint64_t auth_token = 0;
  Pasid pasid;

  static auto Fields(auto& p) {
    return std::tie(p.service_name, p.resource, p.auth_token, p.pasid);
  }
  friend bool operator==(const OpenRequest&, const OpenRequest&) = default;
};

// Connection details (Fig. 2 step 4): how much shared memory the provider
// needs for the VIRTIO queues plus data buffers, and the queue shape.
struct OpenResponse {
  InstanceId instance;
  uint64_t shared_bytes_required = 0;
  uint16_t queue_depth = 0;

  static auto Fields(auto& p) {
    return std::tie(p.instance, p.shared_bytes_required, p.queue_depth);
  }
  friend bool operator==(const OpenResponse&, const OpenResponse&) = default;
};

struct CloseRequest {
  InstanceId instance;

  static auto Fields(auto& p) { return std::tie(p.instance); }
  friend bool operator==(const CloseRequest&, const CloseRequest&) = default;
};

struct CloseResponse {
  friend bool operator==(const CloseResponse&, const CloseResponse&) = default;
};

// Device -> memory controller (Fig. 2 step 5): allocate physical memory and
// map it at `vaddr_hint` in address space `pasid`.
struct MemAllocRequest {
  Pasid pasid;
  uint64_t bytes = 0;
  VirtAddr vaddr_hint;
  Access access = Access::kReadWrite;

  static auto Fields(auto& p) { return std::tie(p.pasid, p.bytes, p.vaddr_hint, p.access); }
  friend bool operator==(const MemAllocRequest&, const MemAllocRequest&) = default;
};

// Memory controller -> requesting device: the allocation result. The actual
// IOMMU programming travels separately as a MapDirective to the bus.
struct MemAllocResponse {
  VirtAddr vaddr;
  uint64_t bytes = 0;
  // First physical frame backing the region. Part of the client's lease
  // receipt: after a shard failover the owner re-asserts (vaddr, frames) so
  // the successor can rebuild its table without re-placing memory.
  uint64_t first_frame = 0;

  static auto Fields(auto& p) { return std::tie(p.vaddr, p.bytes, p.first_frame); }
  friend bool operator==(const MemAllocResponse&, const MemAllocResponse&) = default;
};

// Resource controller -> bus (privileged): program `target`'s IOMMU. Only the
// controller of a resource may direct mappings for it (Sec. 2.2 "the system
// bus updates the page tables of a device only when it is instructed to do so
// by the controller of that particular resource").
struct MapDirective {
  DeviceId target;
  Pasid pasid;
  std::vector<MapEntry> entries;
  bool unmap = false;
  // The issuing controller's registration epoch (0 = unfenced, the lone
  // flat controller). The bus rejects a directive whose epoch is older than
  // the issuer's current directory registration: a grant computed before a
  // shard failover cannot program IOMMUs after it (Sec. 4 error handling,
  // extended to the control plane itself).
  uint64_t epoch = 0;

  static auto Fields(auto& p) { return std::tie(p.target, p.pasid, p.entries, p.unmap, p.epoch); }
  friend bool operator==(const MapDirective&, const MapDirective&) = default;
};

struct MemFreeRequest {
  Pasid pasid;
  VirtAddr vaddr;
  uint64_t bytes = 0;

  static auto Fields(auto& p) { return std::tie(p.pasid, p.vaddr, p.bytes); }
  friend bool operator==(const MemFreeRequest&, const MemFreeRequest&) = default;
};

struct MemFreeResponse {
  friend bool operator==(const MemFreeResponse&, const MemFreeResponse&) = default;
};

// Owner device -> bus (Fig. 2 step 7): give `grantee` access to a region the
// owner allocated. The bus forwards to the memory controller for
// authorization before programming the grantee's IOMMU.
struct GrantRequest {
  Pasid pasid;
  VirtAddr vaddr;
  uint64_t bytes = 0;
  DeviceId grantee;
  Access access = Access::kReadWrite;

  static auto Fields(auto& p) { return std::tie(p.pasid, p.vaddr, p.bytes, p.grantee, p.access); }
  friend bool operator==(const GrantRequest&, const GrantRequest&) = default;
};

struct GrantResponse {
  friend bool operator==(const GrantResponse&, const GrantResponse&) = default;
};

struct RevokeRequest {
  Pasid pasid;
  VirtAddr vaddr;
  uint64_t bytes = 0;
  DeviceId grantee;

  static auto Fields(auto& p) { return std::tie(p.pasid, p.vaddr, p.bytes, p.grantee); }
  friend bool operator==(const RevokeRequest&, const RevokeRequest&) = default;
};

struct RevokeResponse {
  friend bool operator==(const RevokeResponse&, const RevokeResponse&) = default;
};

// Doorbell-style attention signal (Sec. 2.3 "Notifications"): data-plane
// events ride the fabric, but devices may also signal over the control plane.
struct Notify {
  InstanceId instance;
  uint64_t payload = 0;

  static auto Fields(auto& p) { return std::tie(p.instance, p.payload); }
  friend bool operator==(const Notify&, const Notify&) = default;
};

// Owner -> consumers: a resource died but the device survived (Sec. 4 "Error
// Handling"); consumers must recover, the owner resets the resource.
struct ResourceFailed {
  std::string service_name;
  InstanceId instance;
  std::string reason;

  static auto Fields(auto& p) { return std::tie(p.service_name, p.instance, p.reason); }
  friend bool operator==(const ResourceFailed&, const ResourceFailed&) = default;
};

// Bus -> all devices: an entire device failed; anyone using its resources
// must recover (Sec. 4).
struct DeviceFailed {
  DeviceId device;

  static auto Fields(auto& p) { return std::tie(p.device); }
  friend bool operator==(const DeviceFailed&, const DeviceFailed&) = default;
};

// Bus -> device: reset line, "in an attempt to restart it" (Sec. 4).
struct ResetSignal {
  friend bool operator==(const ResetSignal&, const ResetSignal&) = default;
};

// Bus -> all devices: the supervisor exhausted its restart policy (attempts
// spent, or a crash loop detected) and quarantined the device. Terminal:
// unlike DeviceFailed, the device is never coming back, so consumers must
// stop retrying and surface the failure to their applications.
struct DevicePermanentlyFailed {
  DeviceId device;
  std::string reason;

  static auto Fields(auto& p) { return std::tie(p.device, p.reason); }
  friend bool operator==(const DevicePermanentlyFailed&, const DevicePermanentlyFailed&) = default;
};

// Tear down every resource belonging to an application address space
// (task life cycle management, Sec. 1).
struct TeardownApp {
  Pasid pasid;

  static auto Fields(auto& p) { return std::tie(p.pasid); }
  friend bool operator==(const TeardownApp&, const TeardownApp&) = default;
};

// Upload a new application image to a device's loader service (Sec. 2.1
// "devices that store their applications internally ... must expose a loader
// service"). Gated by the auth service (Sec. 4).
struct LoadImage {
  std::string app_name;
  std::vector<uint8_t> image;
  uint64_t auth_token = 0;

  static auto Fields(auto& p) { return std::tie(p.app_name, p.image, p.auth_token); }
  friend bool operator==(const LoadImage&, const LoadImage&) = default;
};

struct LoadImageResponse {
  friend bool operator==(const LoadImageResponse&, const LoadImageResponse&) = default;
};

// Login: user + secret -> token (Sec. 4 "Access Control", the 'login'
// program / 'passwd' file equivalent).
struct AuthRequest {
  std::string user;
  std::string secret;

  static auto Fields(auto& p) { return std::tie(p.user, p.secret); }
  friend bool operator==(const AuthRequest&, const AuthRequest&) = default;
};

struct AuthResponse {
  uint64_t token = 0;
  uint64_t expiry_nanos = 0;

  static auto Fields(auto& p) { return std::tie(p.token, p.expiry_nanos); }
  friend bool operator==(const AuthResponse&, const AuthResponse&) = default;
};

// Generic failure answer to any request.
struct ErrorResponse {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  static auto Fields(auto& p) { return std::tie(p.code, p.message); }
  friend bool operator==(const ErrorResponse&, const ErrorResponse&) = default;
};

// Bus -> resource controller: acknowledges that a MapDirective's programming
// completed, so the controller can release the dependent response.
struct MapConfirm {
  DeviceId target;
  Pasid pasid;

  static auto Fields(auto& p) { return std::tie(p.target, p.pasid); }
  friend bool operator==(const MapConfirm&, const MapConfirm&) = default;
};

// Client -> service provider: after allocating and granting the session's
// shared memory, tells the provider where the virtqueue session lives in the
// application's address space (completes the Fig. 2 handshake: "programming
// the VIRTIO queues ... using virtual addresses").
struct AttachQueue {
  InstanceId instance;
  VirtAddr base;

  static auto Fields(auto& p) { return std::tie(p.instance, p.base); }
  friend bool operator==(const AttachQueue&, const AttachQueue&) = default;
};

struct AttachQueueResponse {
  friend bool operator==(const AttachQueueResponse&, const AttachQueueResponse&) = default;
};

// Device -> bus: periodic liveness proof. A bus with watchdog monitoring
// enabled declares a device failed when its heartbeats stop (Sec. 2.2's
// liveness record, made continuous).
struct Heartbeat {
  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

// Client -> file service: create a file. The token's user becomes the owner
// when the service enforces access control.
struct FileCreate {
  std::string name;
  uint64_t auth_token = 0;

  static auto Fields(auto& p) { return std::tie(p.name, p.auth_token); }
  friend bool operator==(const FileCreate&, const FileCreate&) = default;
};

// Client -> file service: delete a file (owner-only under access control).
struct FileDelete {
  std::string name;
  uint64_t auth_token = 0;

  static auto Fields(auto& p) { return std::tie(p.name, p.auth_token); }
  friend bool operator==(const FileDelete&, const FileDelete&) = default;
};

// Success answer to FileCreate/FileDelete.
struct FileAdminResponse {
  friend bool operator==(const FileAdminResponse&, const FileAdminResponse&) = default;
};

// Client -> file service: list files (remote 'ls'; Sec. 4 maintenance).
struct FileList {
  uint64_t auth_token = 0;

  static auto Fields(auto& p) { return std::tie(p.auth_token); }
  friend bool operator==(const FileList&, const FileList&) = default;
};

struct FileListResponse {
  std::vector<std::string> names;

  static auto Fields(auto& p) { return std::tie(p.names); }
  friend bool operator==(const FileListResponse&, const FileListResponse&) = default;
};

// Device -> memory controller: lease `count` regions of `bytes` each in one
// round trip (the grant-magazine refill path). Each region is placed and
// mapped exactly as `count` individual MemAllocRequests would be, but the
// controller issues a single combined MapDirective, so the whole batch costs
// one request/response pair on the management ring instead of `count`.
struct MemAllocBatchRequest {
  Pasid pasid;
  uint64_t bytes = 0;  // bytes per region, all regions equally sized
  uint32_t count = 0;
  Access access = Access::kReadWrite;

  static auto Fields(auto& p) { return std::tie(p.pasid, p.bytes, p.count, p.access); }
  friend bool operator==(const MemAllocBatchRequest&, const MemAllocBatchRequest&) = default;
};

// Memory controller -> device: the leased regions, one vaddr per region.
struct MemAllocBatchResponse {
  std::vector<VirtAddr> vaddrs;
  uint64_t bytes = 0;  // bytes per region
  // First physical frame per region, parallel to `vaddrs` (lease receipts;
  // see MemAllocResponse::first_frame). Empty from pre-lease encoders.
  std::vector<uint64_t> first_frames;

  static auto Fields(auto& p) { return std::tie(p.vaddrs, p.bytes, p.first_frames); }
  friend bool operator==(const MemAllocBatchResponse&, const MemAllocBatchResponse&) = default;
};

// Device -> memory controller: return several equally sized regions in one
// round trip (the magazine drain path).
struct MemFreeBatchRequest {
  Pasid pasid;
  std::vector<VirtAddr> vaddrs;
  uint64_t bytes = 0;  // bytes per region

  static auto Fields(auto& p) { return std::tie(p.pasid, p.vaddrs, p.bytes); }
  friend bool operator==(const MemFreeBatchRequest&, const MemFreeBatchRequest&) = default;
};

struct MemFreeBatchResponse {
  friend bool operator==(const MemFreeBatchResponse&, const MemFreeBatchResponse&) = default;
};

// One registered memory-controller shard, as the bus's shard directory
// records it: where the shard sits and which slice of every application's
// virtual address space it owns. va_limit == 0 means "the whole space" (a
// lone unsharded controller).
struct ShardRecord {
  DeviceId device;
  uint32_t segment = 0;
  uint64_t va_base = 0;    // first byte of the shard's VA slab
  uint64_t va_limit = 0;   // one past the last byte of the slab
  uint64_t capacity_bytes = 0;
  // Registration epoch: bumped every time the shard's volatile tables are
  // rebuilt (restart) and on takeover by a successor. Directives carrying an
  // older epoch are fenced by the bus; clients treat an epoch change as "my
  // leases must be re-asserted".
  uint64_t epoch = 0;

  static auto Fields(auto& p) {
    return std::tie(p.device, p.segment, p.va_base, p.va_limit, p.capacity_bytes, p.epoch);
  }
  friend bool operator==(const ShardRecord&, const ShardRecord&) = default;
};

// Memory-controller shard -> bus (one-way): registers the VA slab and
// capacity this shard owns, so owner-addressed operations (grant / revoke /
// free sent to the bus) route to the shard whose table holds the address.
// Re-sent on every alive announce; registration is idempotent. A lone
// unsharded controller never sends this, keeping the single-controller wire
// exchange unchanged.
struct MemShardAnnounce {
  ShardRecord shard;

  static auto Fields(auto& p) { return std::tie(p.shard); }
  friend bool operator==(const MemShardAnnounce&, const MemShardAnnounce&) = default;
};

// Device -> bus: asks for the registered memory shards. Rack-scale service
// discovery as one unicast round trip against the bus's directory instead of
// an O(devices) machine-wide broadcast.
struct ShardDirectoryRequest {
  friend bool operator==(const ShardDirectoryRequest&, const ShardDirectoryRequest&) = default;
};

struct ShardDirectoryResponse {
  std::vector<ShardRecord> shards;

  static auto Fields(auto& p) { return std::tie(p.shards); }
  friend bool operator==(const ShardDirectoryResponse&, const ShardDirectoryResponse&) = default;
};

// One grant riding inside a lease record.
struct LeaseGrant {
  DeviceId grantee;
  Access access = Access::kReadWrite;

  static auto Fields(auto& p) { return std::tie(p.grantee, p.access); }
  friend bool operator==(const LeaseGrant&, const LeaseGrant&) = default;
};

// One allocation as its owner remembers it: the lease receipt handed back by
// the controller at alloc time, plus any grants the owner has made since.
struct LeaseRecord {
  Pasid pasid;
  VirtAddr vaddr;
  uint64_t bytes = 0;
  uint64_t first_frame = 0;
  Access access = Access::kReadWrite;
  std::vector<LeaseGrant> grants;

  static auto Fields(auto& p) {
    return std::tie(p.pasid, p.vaddr, p.bytes, p.first_frame, p.access, p.grants);
  }
  friend bool operator==(const LeaseRecord&, const LeaseRecord&) = default;
};

// Owner device -> memory-controller shard: re-assert the leases this device
// holds inside the shard's VA slabs. Sent after the shard failed (restart
// rebuild) or was taken over by a successor (adoption). The controller
// re-admits each lease into its table — first re-assertion wins; conflicts
// and duplicates are rejected, not merged. No IOMMU reprogramming happens:
// the owner's and grantees' mappings survived (only the controller died).
struct LeaseReassertRequest {
  std::vector<LeaseRecord> leases;

  static auto Fields(auto& p) { return std::tie(p.leases); }
  friend bool operator==(const LeaseReassertRequest&, const LeaseReassertRequest&) = default;
};

struct LeaseReassertResponse {
  uint32_t accepted = 0;
  uint32_t rejected = 0;
  uint64_t epoch = 0;  // the controller's current registration epoch

  static auto Fields(auto& p) { return std::tie(p.accepted, p.rejected, p.epoch); }
  friend bool operator==(const LeaseReassertResponse&, const LeaseReassertResponse&) = default;
};

// ---------------------------------------------------------------------------
// The message table: the one place a bus message type is declared. Each row
// names a payload struct above and says whether it is a response (a reply
// that completes a pending request and is never error-bounced). The row's
// position is its MessageType value, its Payload variant index and its
// on-wire type tag, so rows are only ever appended. The enum, the variant,
// MessageTypeName and IsResponse are generated from this list; the codec
// walks each struct's Fields.
// ---------------------------------------------------------------------------
#define LASTCPU_BUS_MESSAGES(X)       \
  X(AliveAnnounce, false)           \
  X(DiscoverRequest, false)         \
  X(DiscoverResponse, true)         \
  X(OpenRequest, false)             \
  X(OpenResponse, true)             \
  X(CloseRequest, false)            \
  X(CloseResponse, true)            \
  X(MemAllocRequest, false)         \
  X(MemAllocResponse, true)         \
  X(MapDirective, false)            \
  X(MemFreeRequest, false)          \
  X(MemFreeResponse, true)          \
  X(GrantRequest, false)            \
  X(GrantResponse, true)            \
  X(RevokeRequest, false)           \
  X(RevokeResponse, true)           \
  X(Notify, false)                  \
  X(ResourceFailed, false)          \
  X(DeviceFailed, false)            \
  X(ResetSignal, false)             \
  X(TeardownApp, false)             \
  X(LoadImage, false)               \
  X(LoadImageResponse, true)        \
  X(AuthRequest, false)             \
  X(AuthResponse, true)             \
  X(ErrorResponse, true)            \
  X(MapConfirm, true)               \
  X(AttachQueue, false)             \
  X(AttachQueueResponse, true)      \
  X(Heartbeat, false)               \
  X(FileCreate, false)              \
  X(FileDelete, false)              \
  X(FileAdminResponse, true)        \
  X(FileList, false)                \
  X(FileListResponse, true)         \
  X(DevicePermanentlyFailed, false) \
  X(MemAllocBatchRequest, false)    \
  X(MemAllocBatchResponse, true)    \
  X(MemFreeBatchRequest, false)     \
  X(MemFreeBatchResponse, true)     \
  X(MemShardAnnounce, false)        \
  X(ShardDirectoryRequest, false)   \
  X(ShardDirectoryResponse, true)   \
  X(LeaseReassertRequest, false)    \
  X(LeaseReassertResponse, true)

namespace internal {
template <typename Unused, typename... Ts>
struct VariantOfRest {
  using type = std::variant<Ts...>;
};
}  // namespace internal

#define LASTCPU_PAYLOAD_ALTERNATIVE(Name, is_response) , Name
using Payload =
    internal::VariantOfRest<void LASTCPU_BUS_MESSAGES(LASTCPU_PAYLOAD_ALTERNATIVE)>::type;
#undef LASTCPU_PAYLOAD_ALTERNATIVE

// Message kind; the value is the row's position in LASTCPU_BUS_MESSAGES.
#define LASTCPU_MESSAGE_ENUMERATOR(Name, is_response) k##Name,
enum class MessageType : uint16_t { LASTCPU_BUS_MESSAGES(LASTCPU_MESSAGE_ENUMERATOR) };
#undef LASTCPU_MESSAGE_ENUMERATOR

#define LASTCPU_COUNT_ROW(Name, is_response) +1
inline constexpr size_t kMessageTypeCount = 0 LASTCPU_BUS_MESSAGES(LASTCPU_COUNT_ROW);
#undef LASTCPU_COUNT_ROW

// True for response kinds: they complete a pending request, while request
// kinds dispatch to handlers even when they carry a request id.
constexpr bool IsResponse(MessageType type) {
#define LASTCPU_RESPONSE_FLAG(Name, is_response) is_response,
  constexpr bool kIsResponse[] = {LASTCPU_BUS_MESSAGES(LASTCPU_RESPONSE_FLAG)};
#undef LASTCPU_RESPONSE_FLAG
  auto index = static_cast<size_t>(type);
  return index < kMessageTypeCount && kIsResponse[index];
}

std::string_view MessageTypeName(MessageType type);

// The control-plane message envelope.
struct Message {
  DeviceId src;
  DeviceId dst;  // kBroadcastDevice for discovery, kBusDevice for bus-handled ops
  RequestId request_id;  // correlates responses with requests; Invalid() for one-way
  Payload payload;
  // Causal trace context (simulator metadata, never encoded on the wire —
  // carrying it does not change modeled message sizes or latencies). The
  // default initializer keeps four-field aggregate init at call sites legal
  // under -Wmissing-field-initializers.
  sim::TraceContext trace{};

  MessageType type() const { return static_cast<MessageType>(payload.index()); }

  // Typed accessors: abort if the payload kind is wrong (protocol violation).
  template <typename T>
  const T& As() const {
    return std::get<T>(payload);
  }
  template <typename T>
  bool Is() const {
    return std::holds_alternative<T>(payload);
  }
};

// Builds a request envelope.
Message MakeRequest(DeviceId src, DeviceId dst, RequestId id, Payload payload);
// Builds the response envelope for `request` with the given payload.
Message MakeResponse(const Message& request, DeviceId src, Payload payload);
// Builds an ErrorResponse envelope for `request`.
Message MakeError(const Message& request, DeviceId src, Status status);

}  // namespace lastcpu::proto

#endif  // SRC_PROTO_MESSAGE_H_
