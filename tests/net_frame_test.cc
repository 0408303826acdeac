// Wire-layer tests: little-endian field primitives, frame round trips under
// arbitrary chunking, corruption detection, and the protocol message codec
// (every MsgType round-trips; truncated and overlong bodies are rejected).

#include <string>
#include <variant>
#include <vector>

#include "consentdb/net/frame.h"
#include "consentdb/net/protocol.h"
#include "consentdb/util/rng.h"
#include "gtest/gtest.h"

namespace consentdb::net {
namespace {

TEST(FramePrimitives, LittleEndianRoundTrip) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU32(&buf, 0x01020304u);
  PutU64(&buf, 0x1122334455667788ull);
  PutString(&buf, "hello");
  PutString(&buf, "");

  // Fixed byte layout, independent of host endianness.
  ASSERT_EQ(buf.size(), 1 + 4 + 8 + (4 + 5) + 4);
  EXPECT_EQ(static_cast<uint8_t>(buf[1]), 0x04);  // u32 low byte first
  EXPECT_EQ(static_cast<uint8_t>(buf[4]), 0x01);

  size_t pos = 0;
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s1, s2;
  ASSERT_TRUE(GetU8(buf, &pos, &u8));
  ASSERT_TRUE(GetU32(buf, &pos, &u32));
  ASSERT_TRUE(GetU64(buf, &pos, &u64));
  ASSERT_TRUE(GetString(buf, &pos, &s1));
  ASSERT_TRUE(GetString(buf, &pos, &s2));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(pos, buf.size());

  // Underrun: reading past the end fails without advancing into garbage.
  uint64_t extra = 0;
  EXPECT_FALSE(GetU64(buf, &pos, &extra));
}

TEST(FrameParser, RoundTripsUnderArbitraryChunking) {
  std::string stream;
  std::vector<std::pair<uint8_t, std::string>> frames = {
      {1, "alpha"}, {2, ""}, {9, std::string(1000, 'x')}, {3, "tail"}};
  for (const auto& [type, body] : frames) stream += EncodeFrame(type, body);

  // Deliver the same stream in every chunk size from 1 byte to whole-stream;
  // the parser must produce identical frames regardless of fragmentation.
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{7}, stream.size()}) {
    FrameParser parser;
    std::vector<std::pair<uint8_t, std::string>> got;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      parser.Feed(std::string_view(stream).substr(off, chunk));
      Frame f;
      while (parser.Next(&f) == FrameParser::Event::kFrame) {
        got.emplace_back(f.type, f.body);
      }
    }
    EXPECT_EQ(got, frames) << "chunk size " << chunk;
    EXPECT_EQ(parser.buffered_bytes(), 0u);
    EXPECT_FALSE(parser.corrupt());
  }
}

TEST(FrameParser, IncompleteTailIsNotAFrame) {
  std::string stream = EncodeFrame(5, "partial");
  FrameParser parser;
  parser.Feed(std::string_view(stream).substr(0, stream.size() - 1));
  Frame f;
  EXPECT_EQ(parser.Next(&f), FrameParser::Event::kNone);
  parser.Feed(std::string_view(stream).substr(stream.size() - 1));
  EXPECT_EQ(parser.Next(&f), FrameParser::Event::kFrame);
  EXPECT_EQ(f.body, "partial");
}

TEST(FrameParser, BitFlipIsCorruptAndSticky) {
  std::string stream = EncodeFrame(1, "payload") + EncodeFrame(2, "after");
  stream[14] = static_cast<char>(stream[14] ^ 0x40);  // flip inside payload 1
  FrameParser parser;
  parser.Feed(stream);
  Frame f;
  EXPECT_EQ(parser.Next(&f), FrameParser::Event::kCorrupt);
  // Sticky: the intact second frame is unreachable — one bad frame means
  // the stream has lost sync for good.
  EXPECT_EQ(parser.Next(&f), FrameParser::Event::kCorrupt);
  EXPECT_TRUE(parser.corrupt());
}

TEST(FrameParser, HeaderLayout) {
  const std::string frame = EncodeFrame(7, "ab");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
  size_t pos = 0;
  uint32_t len = 0;
  ASSERT_TRUE(GetU32(frame, &pos, &len));
  EXPECT_EQ(len, 3u);
  EXPECT_EQ(static_cast<uint8_t>(frame[kFrameHeaderBytes]), 7);
}

TEST(FrameParser, HeaderBitFlipIsCorruptOnceHeaderArrives) {
  // Any flipped bit in the length, the payload CRC or the header CRC is
  // rejected from the 12 header bytes alone — a length rewritten in range,
  // longer or shorter than the real payload, included: the parser never
  // waits for a payload the peer will not send.
  const std::string frame = EncodeFrame(1, std::string(40, 'p'));
  for (size_t bit = 0; bit < kFrameHeaderBytes * 8; ++bit) {
    std::string header = frame.substr(0, kFrameHeaderBytes);
    header[bit / 8] = static_cast<char>(header[bit / 8] ^ (1 << (bit % 8)));
    FrameParser parser;
    parser.Feed(header);
    Frame f;
    EXPECT_EQ(parser.Next(&f), FrameParser::Event::kCorrupt) << "bit " << bit;
  }
}

TEST(FrameParser, OversizeLengthPrefixIsCorrupt) {
  std::string stream;
  PutU32(&stream, kMaxFramePayload + 1);
  PutU32(&stream, 0);
  FrameParser parser;
  parser.Feed(stream);
  Frame f;
  EXPECT_EQ(parser.Next(&f), FrameParser::Event::kCorrupt);
}

TEST(FrameParser, ZeroLengthPayloadIsCorrupt) {
  // A payload always carries at least the type byte.
  std::string stream;
  PutU32(&stream, 0);
  PutU32(&stream, 0);
  FrameParser parser;
  parser.Feed(stream);
  Frame f;
  EXPECT_EQ(parser.Next(&f), FrameParser::Event::kCorrupt);
}

TEST(Protocol, EveryMessageTypeRoundTrips) {
  std::vector<Message> messages = {
      OpenSession{42, "tenant-a", "SELECT x FROM T", 1, "1,'ana'", 5'000'000},
      ProbeRequest{42, 7, "x7", "ana"},
      ProbeAnswer{42, 7, 1},
      ProbeFaultMsg{42, 7, 2},
      SessionReportMsg{42, "{\"probes\":3}"},
      ErrorMsg{42, 9, "server is at capacity", 1'000'000'000},
      AckMsg{42},
      PingMsg{0xDEAD},
      PongMsg{0xDEAD},
  };
  for (const Message& msg : messages) {
    std::string wire = EncodeMessage(msg);
    FrameParser parser;
    parser.Feed(wire);
    Frame f;
    ASSERT_EQ(parser.Next(&f), FrameParser::Event::kFrame);
    Result<Message> decoded = DecodeMessage(f.type, f.body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->index(), msg.index());
  }

  // Spot-check field fidelity on the richest message.
  std::string wire = EncodeMessage(messages[0]);
  FrameParser parser;
  parser.Feed(wire);
  Frame f;
  ASSERT_EQ(parser.Next(&f), FrameParser::Event::kFrame);
  Result<Message> decoded = DecodeMessage(f.type, f.body);
  ASSERT_TRUE(decoded.ok());
  const auto& open = std::get<OpenSession>(*decoded);
  EXPECT_EQ(open.session_id, 42u);
  EXPECT_EQ(open.tenant, "tenant-a");
  EXPECT_EQ(open.sql, "SELECT x FROM T");
  EXPECT_EQ(open.has_single, 1);
  EXPECT_EQ(open.single_csv, "1,'ana'");
  EXPECT_EQ(open.deadline_nanos, 5'000'000);
}

TEST(Protocol, EncodingIsDeterministic) {
  Message msg = OpenSession{7, "t", "SELECT a FROM B", 0, "", 0};
  EXPECT_EQ(EncodeMessage(msg), EncodeMessage(msg));
}

TEST(Protocol, TruncatedBodyRejected) {
  std::string wire = EncodeMessage(ProbeRequest{42, 7, "x7", "ana"});
  FrameParser parser;
  parser.Feed(wire);
  Frame f;
  ASSERT_EQ(parser.Next(&f), FrameParser::Event::kFrame);
  for (size_t cut = 0; cut < f.body.size(); ++cut) {
    Result<Message> decoded =
        DecodeMessage(f.type, std::string_view(f.body).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(Protocol, TrailingBytesRejected) {
  std::string wire = EncodeMessage(AckMsg{42});
  FrameParser parser;
  parser.Feed(wire);
  Frame f;
  ASSERT_EQ(parser.Next(&f), FrameParser::Event::kFrame);
  Result<Message> decoded = DecodeMessage(f.type, f.body + "junk");
  EXPECT_FALSE(decoded.ok());
}

TEST(Protocol, UnknownTypeRejected) {
  Result<Message> decoded = DecodeMessage(250, "");
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

TEST(Protocol, StatusCodeWireMappingRoundTrips) {
  const StatusCode codes[] = {
      StatusCode::kInvalidArgument,  StatusCode::kNotFound,
      StatusCode::kAlreadyExists,    StatusCode::kOutOfRange,
      StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
      StatusCode::kUnimplemented,    StatusCode::kInternal,
      StatusCode::kUnavailable,      StatusCode::kDeadlineExceeded,
  };
  for (StatusCode code : codes) {
    Status s = StatusFromWire(WireStatusCode(code), "msg");
    EXPECT_EQ(s.code(), code);
    EXPECT_EQ(s.message(), "msg");
  }
  // Out-of-range wire byte (a newer peer) degrades to kInternal, never OK.
  EXPECT_EQ(StatusFromWire(200, "m").code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace consentdb::net
