#include "src/proto/message.h"

#include <utility>

namespace lastcpu::proto {

std::string_view ServiceTypeName(ServiceType type) {
  switch (type) {
    case ServiceType::kMemory:
      return "memory";
    case ServiceType::kFile:
      return "file";
    case ServiceType::kBlock:
      return "block";
    case ServiceType::kNetwork:
      return "network";
    case ServiceType::kCompute:
      return "compute";
    case ServiceType::kLoader:
      return "loader";
    case ServiceType::kAuth:
      return "auth";
    case ServiceType::kLog:
      return "log";
    case ServiceType::kKeyValue:
      return "key-value";
  }
  return "unknown";
}

std::string_view MessageTypeName(MessageType type) {
#define LASTCPU_MESSAGE_NAME(Name, is_response) #Name,
  static constexpr std::string_view kNames[] = {LASTCPU_BUS_MESSAGES(LASTCPU_MESSAGE_NAME)};
#undef LASTCPU_MESSAGE_NAME
  auto index = static_cast<size_t>(type);
  return index < kMessageTypeCount ? kNames[index] : "Unknown";
}

Message MakeRequest(DeviceId src, DeviceId dst, RequestId id, Payload payload) {
  return Message{src, dst, id, std::move(payload)};
}

Message MakeResponse(const Message& request, DeviceId src, Payload payload) {
  return Message{src, request.src, request.request_id, std::move(payload)};
}

Message MakeError(const Message& request, DeviceId src, Status status) {
  return Message{src, request.src, request.request_id,
                 ErrorResponse{status.code(), status.message()}};
}

}  // namespace lastcpu::proto
