#include "consentdb/net/frame.h"

#include "consentdb/util/crc32.h"

namespace consentdb::net {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string* out, std::string_view v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->append(v);
}

bool GetU8(std::string_view in, size_t* pos, uint8_t* v) {
  if (*pos + 1 > in.size()) return false;
  *v = static_cast<uint8_t>(in[*pos]);
  *pos += 1;
  return true;
}

bool GetU32(std::string_view in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *v = out;
  *pos += 4;
  return true;
}

bool GetU64(std::string_view in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *v = out;
  *pos += 8;
  return true;
}

bool GetString(std::string_view in, size_t* pos, std::string* v) {
  uint32_t size = 0;
  if (!GetU32(in, pos, &size)) return false;
  if (*pos + size > in.size()) return false;
  v->assign(in.substr(*pos, size));
  *pos += size;
  return true;
}

std::string EncodeFrame(uint8_t type, std::string_view body) {
  std::string payload;
  payload.reserve(1 + body.size());
  PutU8(&payload, type);
  payload.append(body);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  PutU32(&frame, Crc32(frame));
  frame.append(payload);
  return frame;
}

FrameParser::Event FrameParser::Next(Frame* frame) {
  if (corrupt_) return Event::kCorrupt;
  size_t pos = 0;
  uint32_t len = 0;
  uint32_t crc = 0;
  uint32_t header_crc = 0;
  if (!GetU32(buffer_, &pos, &len)) return Event::kNone;
  if (len == 0 || len > kMaxFramePayload) {
    corrupt_ = true;
    return Event::kCorrupt;
  }
  if (!GetU32(buffer_, &pos, &crc)) return Event::kNone;
  const std::string_view checked(buffer_.data(), pos);
  if (!GetU32(buffer_, &pos, &header_crc)) return Event::kNone;
  if (Crc32(checked) != header_crc) {
    corrupt_ = true;
    return Event::kCorrupt;
  }
  if (pos + len > buffer_.size()) return Event::kNone;
  std::string_view payload(buffer_.data() + pos, len);
  if (Crc32(payload) != crc) {
    corrupt_ = true;
    return Event::kCorrupt;
  }
  frame->type = static_cast<uint8_t>(payload[0]);
  frame->body.assign(payload.substr(1));
  buffer_.erase(0, pos + len);
  return Event::kFrame;
}

}  // namespace consentdb::net
