#include "src/proto/codec.h"

#include <array>
#include <tuple>
#include <type_traits>
#include <utility>

namespace lastcpu::proto {
namespace {

// Wire magic: "LC" + protocol version 1.
constexpr uint8_t kMagic0 = 0x4C;
constexpr uint8_t kMagic1 = 0x43;
constexpr uint8_t kVersion = 1;

// The envelope in front of every payload.
struct WireHeader {
  uint8_t magic0 = kMagic0;
  uint8_t magic1 = kMagic1;
  uint8_t version = kVersion;
  uint16_t type = 0;
  DeviceId src;
  DeviceId dst;
  RequestId request_id;
  uint32_t payload_bytes = 0;

  static auto Fields(auto& p) {
    return std::tie(p.magic0, p.magic1, p.version, p.type, p.src, p.dst, p.request_id,
                    p.payload_bytes);
  }
};

// --- field kinds -------------------------------------------------------------
//
// A payload field is a scalar, a byte run, a list, or a nested struct that
// lists its own Fields (an empty struct encodes to nothing). Scalars travel as
// little-endian integers: fixed integers as themselves, bool as a u8, enums as
// their underlying integer, a TypedId as its value(), a VirtAddr as its raw
// address. A byte run (string or vector<uint8_t>) is a u32 length plus the
// bytes; a list (any other vector) is a u32 count plus the elements.

template <typename T>
constexpr bool kIsTypedId = false;
template <typename Tag, typename Int>
constexpr bool kIsTypedId<TypedId<Tag, Int>> = true;

template <typename T>
constexpr bool kIsList = false;
template <typename E>
constexpr bool kIsList<std::vector<E>> = true;

template <typename T>
constexpr bool kIsBytes =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::vector<uint8_t>>;

template <typename T>
constexpr bool kIsScalar =
    std::is_integral_v<T> || std::is_enum_v<T> || kIsTypedId<T> || std::is_same_v<T, VirtAddr>;

// The integer a scalar travels as.
template <typename T>
constexpr auto ToWire(T value) {
  if constexpr (std::is_same_v<T, bool>) {
    return static_cast<uint8_t>(value);
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<std::underlying_type_t<T>>(value);
  } else if constexpr (kIsTypedId<T>) {
    return value.value();
  } else if constexpr (std::is_same_v<T, VirtAddr>) {
    return value.raw;
  } else {
    return value;
  }
}

// The largest valid bool or enum value: decode rejects anything above it, so
// every accepted message re-encodes to the bytes it came from.
template <typename T>
constexpr T MaxValid() {
  if constexpr (std::is_same_v<T, bool>) {
    return true;
  } else {
    return EnumMax(T{});
  }
}

// The fewest bytes an encoded T occupies. Decode rejects a list count whose
// elements could not fit in what is left of the buffer.
template <typename T>
constexpr size_t MinWireSize() {
  if constexpr (kIsScalar<T>) {
    return sizeof(ToWire(T{}));
  } else if constexpr (kIsBytes<T> || kIsList<T>) {
    return 4;
  } else if constexpr (std::is_empty_v<T>) {
    return 0;
  } else {
    using FieldRefs = decltype(T::Fields(std::declval<T&>()));
    return []<typename... F>(std::type_identity<std::tuple<F&...>>) {
      return (MinWireSize<F>() + ... + 0);
    }(std::type_identity<FieldRefs>{});
  }
}

constexpr size_t kHeaderBytes = MinWireSize<WireHeader>();
static_assert(kHeaderBytes == 25);

// --- the visitor -------------------------------------------------------------
//
// Walk visits a field in wire order and hands each integer and byte run to an
// op: Encoder writes bytes, Sizer counts them without writing, Decoder reads
// them back. It returns false once the op fails (only Decoder can).

struct Encoder {
  static constexpr bool kDecodes = false;
  ByteWriter& w;

  template <typename I>
  bool Int(I v) {
    if constexpr (sizeof(I) == 1) {
      w.PutU8(v);
    } else if constexpr (sizeof(I) == 2) {
      w.PutU16(v);
    } else if constexpr (sizeof(I) == 4) {
      w.PutU32(v);
    } else {
      w.PutU64(v);
    }
    return true;
  }
  bool Bytes(const std::string& s) {
    w.PutString(s);
    return true;
  }
  bool Bytes(const std::vector<uint8_t>& data) {
    w.PutBytes(data);
    return true;
  }
};

struct Sizer {
  static constexpr bool kDecodes = false;
  size_t bytes = 0;

  template <typename I>
  bool Int(I) {
    bytes += sizeof(I);
    return true;
  }
  template <typename B>
  bool Bytes(const B& data) {
    bytes += 4 + data.size();
    return true;
  }
};

struct Decoder {
  static constexpr bool kDecodes = true;
  ByteReader& r;
  Status status;

  bool Fail(std::string why) {
    status = InvalidArgument(std::move(why));
    return false;
  }
  template <typename V>
  bool Take(Result<V> got, V& out) {
    if (!got.ok()) {
      status = got.status();
      return false;
    }
    out = std::move(*got);
    return true;
  }
  template <typename I>
  bool Int(I& v) {
    if constexpr (sizeof(I) == 1) {
      return Take(r.GetU8(), v);
    } else if constexpr (sizeof(I) == 2) {
      return Take(r.GetU16(), v);
    } else if constexpr (sizeof(I) == 4) {
      return Take(r.GetU32(), v);
    } else {
      return Take(r.GetU64(), v);
    }
  }
  bool Bytes(std::string& s) { return Take(r.GetString(), s); }
  bool Bytes(std::vector<uint8_t>& data) { return Take(r.GetBytes(), data); }
  // Rejects a list count whose elements cannot fit in the unread bytes.
  bool Fits(uint32_t count, size_t min_element_bytes) {
    return static_cast<size_t>(count) * min_element_bytes <= r.remaining() ||
           Fail("element count exceeds buffer");
  }
};

template <typename Op, typename T>
bool Walk(Op& op, T& field) {
  using V = std::remove_const_t<T>;
  if constexpr (kIsScalar<V>) {
    auto wire = ToWire(field);
    if (!op.Int(wire)) {
      return false;
    }
    if constexpr (Op::kDecodes) {
      if constexpr (std::is_same_v<V, bool> || std::is_enum_v<V>) {
        if (wire > ToWire(MaxValid<V>())) {
          return op.Fail("field value out of range");
        }
      }
      field = V(wire);
    }
    return true;
  } else if constexpr (kIsBytes<V>) {
    return op.Bytes(field);
  } else if constexpr (kIsList<V>) {
    using Element = typename V::value_type;
    static_assert(MinWireSize<Element>() > 0, "a list of empty elements has no count bound");
    auto count = static_cast<uint32_t>(field.size());
    if (!op.Int(count)) {
      return false;
    }
    if constexpr (Op::kDecodes) {
      if (!op.Fits(count, MinWireSize<Element>())) {
        return false;
      }
      field.resize(count);
    }
    for (auto& element : field) {
      if (!Walk(op, element)) {
        return false;
      }
    }
    return true;
  } else if constexpr (std::is_empty_v<V>) {
    return true;
  } else {
    return std::apply([&op](auto&... fields) { return (Walk(op, fields) && ...); },
                      V::Fields(field));
  }
}

size_t PayloadSize(const Payload& payload) {
  return std::visit(
      [](const auto& body) {
        Sizer sizer;
        Walk(sizer, body);
        return sizer.bytes;
      },
      payload);
}

// Decoders indexed by wire type tag: each makes that alternative and fills it.
using PayloadDecoder = bool (*)(Decoder&, Payload&);

template <size_t... I>
constexpr std::array<PayloadDecoder, sizeof...(I)> MakePayloadDecoders(
    std::index_sequence<I...>) {
  return {[](Decoder& decoder, Payload& payload) {
    return Walk(decoder, payload.emplace<I>());
  }...};
}

constexpr auto kPayloadDecoders =
    MakePayloadDecoders(std::make_index_sequence<kMessageTypeCount>());

}  // namespace

void ByteWriter::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::PutU32(uint32_t v) {
  PutU16(static_cast<uint16_t>(v));
  PutU16(static_cast<uint16_t>(v >> 16));
}

void ByteWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void ByteWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ByteWriter::PutBytes(std::span<const uint8_t> data) {
  PutU32(static_cast<uint32_t>(data.size()));
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

Result<uint8_t> ByteReader::GetU8() {
  if (pos_ >= data_.size()) {
    return InvalidArgument("truncated message");
  }
  return data_[pos_++];
}

Result<uint16_t> ByteReader::GetU16() {
  if (remaining() < 2) {
    return InvalidArgument("truncated message");
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_]) | static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::GetU32() {
  if (remaining() < 4) {
    return InvalidArgument("truncated message");
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  if (remaining() < 8) {
    return InvalidArgument("truncated message");
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 8;
  return v;
}

Result<std::string> ByteReader::GetString() {
  auto len = GetU32();
  if (!len.ok()) {
    return len.status();
  }
  if (remaining() < *len) {
    return InvalidArgument("truncated string");
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), *len);
  pos_ += *len;
  return s;
}

Result<std::vector<uint8_t>> ByteReader::GetBytes() {
  auto len = GetU32();
  if (!len.ok()) {
    return len.status();
  }
  if (remaining() < *len) {
    return InvalidArgument("truncated bytes");
  }
  std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(pos_),
                           data_.begin() + static_cast<ptrdiff_t>(pos_ + *len));
  pos_ += *len;
  return out;
}

std::vector<uint8_t> EncodeMessage(const Message& message) {
  WireHeader header;
  header.type = static_cast<uint16_t>(message.type());
  header.src = message.src;
  header.dst = message.dst;
  header.request_id = message.request_id;
  header.payload_bytes = static_cast<uint32_t>(PayloadSize(message.payload));
  ByteWriter w;
  w.Reserve(kHeaderBytes + header.payload_bytes);
  Encoder encoder{w};
  Walk(encoder, header);
  std::visit([&encoder](const auto& body) { Walk(encoder, body); }, message.payload);
  return w.Take();
}

Result<Message> DecodeMessage(std::span<const uint8_t> wire) {
  ByteReader r(wire);
  Decoder decoder{r, Status()};
  WireHeader header;
  if (!Walk(decoder, header)) {
    return decoder.status;
  }
  if (header.magic0 != kMagic0 || header.magic1 != kMagic1) {
    return InvalidArgument("bad magic");
  }
  if (header.version != kVersion) {
    return InvalidArgument("unsupported protocol version");
  }
  if (header.type >= kMessageTypeCount) {
    return InvalidArgument("unknown message type");
  }
  if (header.payload_bytes > r.remaining()) {
    return InvalidArgument("truncated payload");
  }
  if (header.payload_bytes < r.remaining()) {
    return InvalidArgument("trailing bytes after message");
  }
  Message message{header.src, header.dst, header.request_id, {}};
  if (!kPayloadDecoders[header.type](decoder, message.payload)) {
    return decoder.status;
  }
  if (!r.AtEnd()) {
    return InvalidArgument("trailing bytes after payload");
  }
  return message;
}

size_t EncodedSize(const Message& message) { return kHeaderBytes + PayloadSize(message.payload); }

}  // namespace lastcpu::proto
