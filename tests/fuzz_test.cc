// Robustness ("fuzz-lite") tests: malformed and randomly generated inputs
// must produce Status errors, never crashes or CHECK failures.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "consentdb/eval/evaluate.h"
#include "consentdb/net/frame.h"
#include "consentdb/net/protocol.h"
#include "consentdb/provenance/normal_form.h"
#include "consentdb/query/optimize.h"
#include "consentdb/query/parser.h"
#include "consentdb/relational/csv.h"
#include "consentdb/util/rng.h"

namespace consentdb {
namespace {

using query::ParseQuery;
using query::PlanPtr;
using relational::Column;
using relational::Schema;
using relational::ValueType;

// --- Parser ----------------------------------------------------------------------

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(41000 + GetParam());
  const std::string alphabet =
      "abcXYZ019 \t\n.,*()'\"=<>!_-;#%&";
  for (int trial = 0; trial < 200; ++trial) {
    size_t length = rng.UniformIndex(64);
    std::string input;
    for (size_t i = 0; i < length; ++i) {
      input += alphabet[rng.UniformIndex(alphabet.size())];
    }
    // Must return (either way) without crashing.
    Result<PlanPtr> r = ParseQuery(input);
    if (r.ok()) {
      EXPECT_NE(*r, nullptr);
    } else {
      EXPECT_FALSE(r.status().message().empty());
    }
  }
}

TEST_P(ParserFuzzTest, MutatedValidQueriesNeverCrash) {
  Rng rng(42000 + GetParam());
  const std::string base =
      "SELECT a.x FROM T a, U b WHERE a.x = b.y AND a.z = 'lit' "
      "UNION SELECT c FROM V WHERE c > 1.5";
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    size_t edits = 1 + rng.UniformIndex(5);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng.UniformIndex(mutated.size());
      switch (rng.UniformIndex(3)) {
        case 0:
          mutated.erase(pos, 1);
          break;
        case 1:
          mutated.insert(pos, 1, "(),'*="[rng.UniformIndex(6)]);
          break;
        default:
          mutated[pos] = static_cast<char>('!' + rng.UniformIndex(90));
      }
      if (mutated.empty()) break;
    }
    (void)ParseQuery(mutated);  // must not crash
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 4));

// Queries that parse but reference garbage must fail cleanly at planning /
// evaluation time.
TEST(PlanFuzzTest, ParsedGarbageFailsWithStatusNotCrash) {
  relational::Database db;
  ASSERT_TRUE(
      db.CreateRelation("T", Schema({Column{"x", ValueType::kInt64}})).ok());
  const char* queries[] = {
      "SELECT * FROM Nope",
      "SELECT missing FROM T",
      "SELECT x FROM T WHERE ghost = 1",
      "SELECT * FROM T a, T a2, Nope",
      "SELECT x FROM T UNION SELECT * FROM T t2, T t3",  // arity mismatch
  };
  for (const char* sql : queries) {
    Result<PlanPtr> plan = ParseQuery(sql);
    if (!plan.ok()) continue;
    Result<relational::Relation> result = eval::Evaluate(*plan, db);
    EXPECT_FALSE(result.ok()) << sql;
    Result<PlanPtr> optimized = query::Optimize(*plan, db);
    EXPECT_FALSE(optimized.ok()) << sql;
  }
}

// --- CSV -------------------------------------------------------------------------

class CsvFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CsvFuzzTest, RandomDocumentsNeverCrash) {
  Rng rng(43000 + GetParam());
  Schema schema({Column{"a", ValueType::kInt64},
                 Column{"b", ValueType::kString}});
  const std::string alphabet = "ab,\"\n\r123 x";
  for (int trial = 0; trial < 200; ++trial) {
    std::string doc = "a,b\n";
    size_t length = rng.UniformIndex(80);
    for (size_t i = 0; i < length; ++i) {
      doc += alphabet[rng.UniformIndex(alphabet.size())];
    }
    (void)relational::ReadRelationCsv(doc, schema);  // must not crash
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest, ::testing::Range(0, 3));

// --- Network decoders ----------------------------------------------------------
// Seeded mutations of valid wire bytes reach the two decoders of untrusted
// network input: whole streams go through FrameParser in random chunks,
// single bodies straight into DecodeMessage. Every call returns, the parse
// loop ends within a step bound set by the byte count, and every frame
// either decodes to a message that re-encodes to the same bytes or fails
// with a Status.

std::vector<net::Message> SampleMessages() {
  return {
      net::OpenSession{42, "tenant-a", "SELECT x FROM T", 1, "1,'ana'", 5000},
      net::ProbeRequest{42, 7, "x7", "ana"},
      net::ProbeAnswer{42, 7, 1},
      net::ProbeFaultMsg{42, 7, 2},
      net::SessionReportMsg{42, "{\"probes\":3}"},
      net::ErrorMsg{42, 9, "server is at capacity", 1'000'000'000},
      net::AckMsg{42},
      net::PingMsg{0xDEAD},
      net::PongMsg{0xDEAD},
  };
}

// A u32 that lands in every regime a length field can be in: tiny, within
// the frame limit, just past it, and anything at all.
uint32_t RandomLength(Rng& rng) {
  switch (rng.UniformIndex(4)) {
    case 0:
      return static_cast<uint32_t>(rng.UniformIndex(16));
    case 1:
      return static_cast<uint32_t>(1 + rng.UniformIndex(net::kMaxFramePayload));
    case 2:
      return net::kMaxFramePayload + 1;
    default:
      return static_cast<uint32_t>(rng.Fork());
  }
}

// One mutation of `bytes`: truncation, bit flips, a slice of `donor`
// spliced in, or a u32 (a frame length or a string length prefix, when
// `length_offsets` names one) rewritten.
std::string Mutate(std::string bytes, std::string_view donor,
                   const std::vector<size_t>& length_offsets, Rng& rng) {
  if (bytes.empty()) return bytes;
  switch (rng.UniformIndex(4)) {
    case 0:
      bytes.resize(rng.UniformIndex(bytes.size()));
      break;
    case 1:
      for (size_t flips = 1 + rng.UniformIndex(4); flips > 0; --flips) {
        const size_t bit = rng.UniformIndex(bytes.size() * 8);
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      }
      break;
    case 2: {
      const size_t from = rng.UniformIndex(donor.size());
      const size_t len = 1 + rng.UniformIndex(donor.size() - from);
      bytes.insert(rng.UniformIndex(bytes.size() + 1),
                   std::string(donor.substr(from, len)));
      break;
    }
    default: {
      size_t at = length_offsets.empty() || rng.Bernoulli(0.25)
                      ? rng.UniformIndex(bytes.size())
                      : length_offsets[rng.UniformIndex(length_offsets.size())];
      if (at + 4 > bytes.size()) at = bytes.size() < 4 ? 0 : bytes.size() - 4;
      std::string field;
      net::PutU32(&field, RandomLength(rng));
      bytes.replace(at, std::min<size_t>(4, bytes.size() - at), field);
      break;
    }
  }
  return bytes;
}

// A decoded message must re-encode to the very frame it came from.
void ExpectCanonical(const net::Frame& frame) {
  Result<net::Message> decoded = net::DecodeMessage(frame.type, frame.body);
  if (decoded.ok()) {
    EXPECT_EQ(net::EncodeMessage(*decoded), net::EncodeFrame(frame.type,
                                                             frame.body));
  } else {
    EXPECT_FALSE(decoded.status().message().empty());
  }
}

class NetDecoderFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(NetDecoderFuzzTest, MutatedStreamsFailWithStatusNotCrash) {
  Rng rng(44000 + GetParam());
  std::string base;
  std::vector<size_t> frame_starts;
  for (const net::Message& msg : SampleMessages()) {
    frame_starts.push_back(base.size());
    base += net::EncodeMessage(msg);
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::string stream = base;
    for (size_t edits = 1 + rng.UniformIndex(3); edits > 0; --edits) {
      stream = Mutate(std::move(stream), base, frame_starts, rng);
    }
    // Every frame consumes at least a header and a type byte.
    const size_t max_frames = stream.size() / (net::kFrameHeaderBytes + 1);
    net::FrameParser parser;
    size_t frames = 0;
    bool corrupt = false;
    for (size_t off = 0; off < stream.size() && !corrupt;) {
      const size_t chunk = 1 + rng.UniformIndex(64);
      parser.Feed(std::string_view(stream).substr(off, chunk));
      off += chunk;
      while (true) {
        net::Frame frame;
        const net::FrameParser::Event event = parser.Next(&frame);
        if (event == net::FrameParser::Event::kNone) break;
        if (event == net::FrameParser::Event::kCorrupt) {
          corrupt = true;
          EXPECT_EQ(parser.Next(&frame), net::FrameParser::Event::kCorrupt);
          break;
        }
        ASSERT_LE(++frames, max_frames) << "trial " << trial;
        ExpectCanonical(frame);
      }
    }
    EXPECT_LE(parser.buffered_bytes(), stream.size());
  }
}

TEST_P(NetDecoderFuzzTest, MutatedBodiesFailWithStatusNotCrash) {
  Rng rng(45000 + GetParam());
  std::vector<net::Frame> frames;
  std::string donor;
  for (const net::Message& msg : SampleMessages()) {
    const std::string wire = net::EncodeMessage(msg);
    net::Frame frame;
    frame.type = static_cast<uint8_t>(wire[net::kFrameHeaderBytes]);
    frame.body = wire.substr(net::kFrameHeaderBytes + 1);
    donor += frame.body;
    frames.push_back(std::move(frame));
  }
  for (int trial = 0; trial < 300; ++trial) {
    net::Frame frame = frames[rng.UniformIndex(frames.size())];
    // String length prefixes sit after a u64 session id in most bodies.
    const std::vector<size_t> length_offsets = {8, 9, 16};
    for (size_t edits = 1 + rng.UniformIndex(3); edits > 0; --edits) {
      frame.body = Mutate(std::move(frame.body), donor, length_offsets, rng);
    }
    if (rng.Bernoulli(0.1)) frame.type = static_cast<uint8_t>(rng.Fork());
    ExpectCanonical(frame);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetDecoderFuzzTest, ::testing::Range(0, 4));

// --- Probability sanity (Monte Carlo) -----------------------------------------------

TEST(ProbabilitySanityTest, TrueProbabilityMatchesSampling) {
  using provenance::Dnf;
  using provenance::PartialValuation;
  using provenance::VarSet;
  Rng rng(44000);
  for (int trial = 0; trial < 10; ++trial) {
    size_t num_vars = 4 + rng.UniformIndex(3);
    std::vector<VarSet> terms;
    size_t num_terms = 1 + rng.UniformIndex(4);
    for (size_t t = 0; t < num_terms; ++t) {
      std::vector<provenance::VarId> term;
      size_t size = 1 + rng.UniformIndex(3);
      for (size_t s = 0; s < size; ++s) {
        term.push_back(static_cast<provenance::VarId>(
            rng.UniformIndex(num_vars)));
      }
      terms.emplace_back(std::move(term));
    }
    Dnf dnf(std::move(terms));
    std::vector<double> pi;
    for (size_t i = 0; i < num_vars; ++i) {
      pi.push_back(0.2 + 0.6 * rng.UniformReal());
    }
    double exact = dnf.TrueProbability(pi);
    int hits = 0;
    const int samples = 20000;
    for (int s = 0; s < samples; ++s) {
      PartialValuation val(num_vars);
      for (size_t i = 0; i < num_vars; ++i) {
        val.Set(static_cast<provenance::VarId>(i), rng.Bernoulli(pi[i]));
      }
      hits += dnf.Evaluate(val) == provenance::Truth::kTrue ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / samples, exact, 0.02)
        << dnf.ToString();
  }
}

}  // namespace
}  // namespace consentdb
