// Wire framing for the probe service: the WAL record idiom (consent/wal.h)
// generalized to a byte stream.
//
// Stream format (binary, little-endian):
//
//   [ u32 payload_len | u32 crc32(payload) | u32 crc32(first 8 bytes) |
//     payload ]*
//
// with payload = { u8 frame_type | body }. Frames are length-prefixed and
// CRC-checksummed, so a torn tail (connection dropped mid-frame) is simply
// an incomplete buffer that dies with the connection, while a corrupted
// frame (bit flip in flight) is detected and reported — the receiver must
// treat it as fatal for the connection, never try to resynchronize. The
// header checksum covers the length and payload CRC: a corrupted length is
// rejected as soon as the 12-byte header arrives, instead of making the
// receiver wait for a payload that never completes.
//
// Every encoded byte is a pure function of the message fields: no map
// iteration order, no clocks, no addresses ever reach the wire, so two runs
// that exchange the same messages exchange identical bytes (the
// consentdb-analyze determinism gates hold this).

#ifndef CONSENTDB_NET_FRAME_H_
#define CONSENTDB_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "consentdb/util/result.h"

namespace consentdb::net {

// Upper bound on one frame's payload; a length prefix beyond this is a
// framing violation (garbage or an attack), not a big message.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

// Length, payload CRC and header CRC.
inline constexpr size_t kFrameHeaderBytes = 12;

// --- Little-endian field primitives (shared by frame.cc and protocol.cc) ---

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
// Length-prefixed string: u32 size then the raw bytes.
void PutString(std::string* out, std::string_view v);

// Cursor-based readers: advance `*pos` and return false on underrun.
bool GetU8(std::string_view in, size_t* pos, uint8_t* v);
bool GetU32(std::string_view in, size_t* pos, uint32_t* v);
bool GetU64(std::string_view in, size_t* pos, uint64_t* v);
bool GetString(std::string_view in, size_t* pos, std::string* v);

// --- Frames ----------------------------------------------------------------

// One complete frame: its type byte and the body after it.
struct Frame {
  uint8_t type = 0;
  std::string body;
};

// Encodes `type` + `body` as one wire frame.
std::string EncodeFrame(uint8_t type, std::string_view body);

// Incremental decoder over an arbitrary chunking of the stream. Feed bytes
// as they arrive; Next() yields complete frames in order.
class FrameParser {
 public:
  enum class Event : uint8_t {
    kNone,    // no complete frame buffered yet
    kFrame,   // *frame was filled
    kCorrupt  // checksum/length violation — drop the connection
  };

  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  // Extracts the next complete frame, if any. After kCorrupt every further
  // call reports kCorrupt again: a stream with one bad frame has lost sync
  // for good.
  Event Next(Frame* frame);

  // Bytes buffered but not yet consumed (incomplete trailing frame).
  size_t buffered_bytes() const { return buffer_.size(); }
  bool corrupt() const { return corrupt_; }

 private:
  std::string buffer_;
  bool corrupt_ = false;
};

}  // namespace consentdb::net

#endif  // CONSENTDB_NET_FRAME_H_
