#include "journal/event_codec.h"

#include <cstring>

#include "common/crc32c.h"

namespace retrasyn {

namespace {

// Payloads are tiny (type byte + at most one varint and two doubles); any
// framed length beyond this is garbage, not a record to skip over.
constexpr uint64_t kMaxPayloadBytes = 1 << 10;

void PutFixed32(uint32_t value, std::string* out) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xFF);
  buf[1] = static_cast<char>((value >> 8) & 0xFF);
  buf[2] = static_cast<char>((value >> 16) & 0xFF);
  buf[3] = static_cast<char>((value >> 24) & 0xFF);
  out->append(buf, 4);
}

uint32_t GetFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24);
}

void PutDouble(double value, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  }
  out->append(buf, 8);
}

bool GetDouble(const char* data, size_t size, size_t* offset, double* value) {
  if (size - *offset < 8) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(
                static_cast<uint8_t>(data[*offset + i]))
            << (8 * i);
  }
  *offset += 8;
  std::memcpy(value, &bits, sizeof(*value));
  return true;
}

}  // namespace

const char* JournalEventTypeName(JournalEventType type) {
  switch (type) {
    case JournalEventType::kEnter:
      return "Enter";
    case JournalEventType::kMove:
      return "Move";
    case JournalEventType::kQuit:
      return "Quit";
    case JournalEventType::kTick:
      return "Tick";
  }
  return "Unknown";
}

void AppendSegmentHeader(uint64_t fingerprint, std::string* out) {
  out->append(kJournalMagic, sizeof(kJournalMagic));
  out->push_back(static_cast<char>(kJournalFormatVersion));
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((fingerprint >> (8 * i)) & 0xFF);
  }
  out->append(buf, 8);
}

Status CheckSegmentHeader(const char* data, size_t size, size_t* offset,
                          uint64_t* fingerprint) {
  if (size - *offset < kSegmentHeaderSize) {
    return Status::OutOfRange("segment ends inside the header");
  }
  if (std::memcmp(data + *offset, kJournalMagic, sizeof(kJournalMagic)) != 0) {
    return Status::InvalidArgument("bad journal segment magic");
  }
  const uint8_t version =
      static_cast<uint8_t>(data[*offset + sizeof(kJournalMagic)]);
  if (version != kJournalFormatVersion) {
    return Status::InvalidArgument("unsupported journal format version " +
                                   std::to_string(version));
  }
  uint64_t fp = 0;
  const char* p = data + *offset + sizeof(kJournalMagic) + 1;
  for (int i = 0; i < 8; ++i) {
    fp |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *fingerprint = fp;
  *offset += kSegmentHeaderSize;
  return Status::OK();
}

void PutVarint64(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint64(const char* data, size_t size, size_t* offset,
                 uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (*offset >= size) return false;
    const uint8_t byte = static_cast<uint8_t>(data[(*offset)++]);
    if (shift == 63 && byte > 1) return false;  // overflows 64 bits
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
  }
  return false;
}

void EncodeRecord(const JournalEvent& event, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(event.type));
  switch (event.type) {
    case JournalEventType::kEnter:
    case JournalEventType::kMove:
      PutVarint64(event.user, &payload);
      PutDouble(event.location.x, &payload);
      PutDouble(event.location.y, &payload);
      break;
    case JournalEventType::kQuit:
      PutVarint64(event.user, &payload);
      break;
    case JournalEventType::kTick:
      break;
  }
  PutVarint64(payload.size(), out);
  out->append(payload);
  PutFixed32(Crc32c(payload.data(), payload.size()), out);
}

Status DecodeRecord(const char* data, size_t size, size_t* offset,
                    JournalEvent* event) {
  size_t pos = *offset;
  uint64_t payload_len = 0;
  if (!GetVarint64(data, size, &pos, &payload_len)) {
    return Status::OutOfRange("record ends inside the length varint");
  }
  if (payload_len == 0 || payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("implausible record length " +
                                   std::to_string(payload_len));
  }
  if (size - pos < payload_len + 4) {
    return Status::OutOfRange("record ends inside payload or checksum");
  }
  const char* payload = data + pos;
  const uint32_t expected = GetFixed32(payload + payload_len);
  const uint32_t actual = Crc32c(payload, payload_len);
  if (actual != expected) {
    return Status::IOError("record checksum mismatch");
  }

  // The frame is intact; anything wrong below is well-framed garbage.
  size_t p = 0;
  JournalEvent out;
  const uint8_t type_byte = static_cast<uint8_t>(payload[p++]);
  switch (static_cast<JournalEventType>(type_byte)) {
    case JournalEventType::kEnter:
    case JournalEventType::kMove: {
      out.type = static_cast<JournalEventType>(type_byte);
      if (!GetVarint64(payload, payload_len, &p, &out.user) ||
          !GetDouble(payload, payload_len, &p, &out.location.x) ||
          !GetDouble(payload, payload_len, &p, &out.location.y)) {
        return Status::InvalidArgument("short Enter/Move payload");
      }
      break;
    }
    case JournalEventType::kQuit:
      out.type = JournalEventType::kQuit;
      if (!GetVarint64(payload, payload_len, &p, &out.user)) {
        return Status::InvalidArgument("short Quit payload");
      }
      break;
    case JournalEventType::kTick:
      out.type = JournalEventType::kTick;
      break;
    default:
      return Status::InvalidArgument("unknown journal event type " +
                                     std::to_string(type_byte));
  }
  if (p != payload_len) {
    return Status::InvalidArgument("trailing bytes in record payload");
  }
  *event = out;
  *offset = pos + payload_len + 4;
  return Status::OK();
}

}  // namespace retrasyn
