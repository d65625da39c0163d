// Wire-codec tests for the prediction service protocol (serve/): golden
// byte strings, encode/decode round-trips including multi-limb values,
// the incremental FrameDecoder against short reads split at every byte
// boundary, malformed/oversized/garbage frames, the Session state
// machine's negotiation error paths, and the per-row Est flags against
// the FinAck counters — all pure bytes-in/bytes-out, no sockets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "core/proposition.hpp"
#include "core/psm.hpp"
#include "serialize/psm_artifact.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "trace/trace_io.hpp"

namespace psmgen {
namespace {

using common::BitVector;
using namespace serve;

std::vector<std::uint8_t> payloadOf(const std::string& frame) {
  // Strip the 5-byte header; the decoder tests cover it separately.
  EXPECT_GE(frame.size(), 5u);
  return std::vector<std::uint8_t>(frame.begin() + 5, frame.end());
}

Frame decodeWhole(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  auto frame = decoder.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
  return *frame;
}

// --- golden bytes -------------------------------------------------------

TEST(ServeProtocol, HelloGoldenBytes) {
  HelloRequest hello;
  hello.version = 1;
  hello.model_id = "m";
  hello.variables = "a:in:3";
  const std::string bytes = encodeHello(hello);
  const std::uint8_t expected[] = {
      0x01,                          // FrameType::Hello
      0x13, 0x00, 0x00, 0x00,        // payload_len = 19
      0x01, 0x00, 0x00, 0x00,        // version = 1
      0x01, 0x00, 0x00, 0x00, 'm',   // model_id = "m"
      0x06, 0x00, 0x00, 0x00,        // variables length
      'a',  ':',  'i',  'n',  ':',  '3',
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(0, std::memcmp(bytes.data(), expected, sizeof(expected)));
}

TEST(ServeProtocol, EstGoldenBytes) {
  const std::string bytes = encodeEst({{1.5, kEstFlagResync}});
  const std::uint8_t expected[] = {
      0x04,                          // FrameType::Est
      0x0d, 0x00, 0x00, 0x00,        // payload_len = 13
      0x01, 0x00, 0x00, 0x00,        // count = 1
      // 1.5 as IEEE-754 double, little-endian
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,
      0x08,                          // flags = Resync
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(0, std::memcmp(bytes.data(), expected, sizeof(expected)));
}

TEST(ServeProtocol, FinIsHeaderOnly) {
  const std::string bytes = encodeFin();
  const std::uint8_t expected[] = {0x05, 0x00, 0x00, 0x00, 0x00};
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(0, std::memcmp(bytes.data(), expected, sizeof(expected)));
}

TEST(ServeProtocol, ErrorGoldenBytes) {
  const std::string bytes = encodeError({ErrorCode::Busy, "no"});
  const std::uint8_t expected[] = {
      0x07,                    // FrameType::Error
      0x08, 0x00, 0x00, 0x00,  // payload_len = 8
      0x05, 0x00,              // code = Busy (u16)
      0x02, 0x00, 0x00, 0x00,  // message length
      'n',  'o',
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(0, std::memcmp(bytes.data(), expected, sizeof(expected)));
}

// --- round-trips --------------------------------------------------------

TEST(ServeProtocol, HelloRoundTrip) {
  HelloRequest hello;
  hello.version = 7;
  hello.model_id = "models/ram.psm";
  hello.variables = "clk:in:1,addr:in:16";
  const Frame frame = decodeWhole(encodeHello(hello));
  EXPECT_EQ(frame.type, FrameType::Hello);
  EXPECT_EQ(decodeHello(frame.payload), hello);
}

TEST(ServeProtocol, HelloOkRoundTrip) {
  HelloReply reply;
  reply.version = kProtocolVersion;
  reply.model_id = "ram";
  reply.psm_format_version = 3;
  reply.states = 12;
  reply.transitions = 40;
  reply.variables = "a:in:3,b:out:9";
  EXPECT_EQ(decodeHelloOk(payloadOf(encodeHelloOk(reply))), reply);
}

TEST(ServeProtocol, EstRoundTripIncludingNonFinite) {
  const std::vector<EstRow> rows = {
      {0.0, 0},
      {-1.25e-3, kEstFlagLost | kEstFlagUnexpected},
      {std::numeric_limits<double>::infinity(), kEstFlagWrongPrediction},
  };
  EXPECT_EQ(decodeEst(payloadOf(encodeEst(rows))), rows);
}

TEST(ServeProtocol, FinAckRoundTrip) {
  FinSummary s;
  s.rows = 1u << 20;
  s.predictions = 99999;
  s.wrong_predictions = 7;
  s.unexpected_behaviours = 3;
  s.lost_instants = 11;
  s.resyncs = 2;
  s.drift_status = 2;
  EXPECT_EQ(decodeFinAck(payloadOf(encodeFinAck(s))), s);
}

TEST(ServeProtocol, ErrorRoundTrip) {
  const ErrorFrame e{ErrorCode::Draining, "server is draining"};
  EXPECT_EQ(decodeError(payloadOf(encodeError(e))), e);
}

TEST(ServeProtocol, RowsRoundTripWithMultiLimbValues) {
  trace::VariableSet vars;
  vars.add("en", 1, trace::VarKind::Input);
  vars.add("bus", 262, trace::VarKind::Input);  // 5 limbs, 6 spare bits
  vars.add("q", 8, trace::VarKind::Output);

  BitVector wide(262);
  for (unsigned bit : {0u, 7u, 63u, 64u, 128u, 200u, 261u}) {
    wide.setBit(bit, true);
  }
  const std::vector<std::vector<BitVector>> rows = {
      {BitVector(1, 1), wide, BitVector(8, 0xA5)},
      {BitVector(1, 0), BitVector(262), BitVector(8, 0xFF)},
  };
  EXPECT_EQ(decodeRows(payloadOf(encodeRows(rows)), vars), rows);
}

TEST(ServeProtocol, RowsRejectNonzeroPaddingBits) {
  trace::VariableSet vars;
  vars.add("v", 3, trace::VarKind::Input);  // 1 byte, 5 padding bits
  std::string frame = encodeRows({{BitVector(3, 0x7)}});
  frame.back() = static_cast<char>(0x87);  // set a bit above width 3
  const Frame f = decodeWhole(frame);
  try {
    decodeRows(f.payload, vars);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Protocol);
    EXPECT_NE(std::string(e.what()).find("padding"), std::string::npos);
  }
}

TEST(ServeProtocol, RowsRejectCountMismatch) {
  trace::VariableSet vars;
  vars.add("v", 8, trace::VarKind::Input);
  std::string frame = encodeRows({{BitVector(8, 1)}, {BitVector(8, 2)}});
  frame[5] = 3;  // claim 3 rows; payload carries 2
  const Frame f = decodeWhole(frame);
  EXPECT_THROW(decodeRows(f.payload, vars), ProtocolError);
}

TEST(ServeProtocol, TruncatedPayloadsThrowNotRead) {
  // Every decoder must fail cleanly on a payload cut anywhere, and on
  // trailing garbage after a well-formed payload.
  const std::string hello = encodeHello({1, "model", "a:in:3"});
  const std::vector<std::uint8_t> payload = payloadOf(hello);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<std::uint8_t> prefix(payload.begin(),
                                     payload.begin() +
                                         static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decodeHello(prefix), ProtocolError) << "cut at " << cut;
  }
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_THROW(decodeHello(trailing), ProtocolError);
  EXPECT_THROW(decodeFinAck({}), ProtocolError);
  EXPECT_THROW(decodeError({0x01}), ProtocolError);
  EXPECT_THROW(decodeEst({0x01, 0x00, 0x00, 0x00}), ProtocolError);
}

// --- FrameDecoder -------------------------------------------------------

TEST(ServeFrameDecoder, ReassemblesAcrossEveryShortReadBoundary) {
  const std::string a = encodeHello({1, "ram", "a:in:3,b:out:9"});
  const std::string b = encodeEst({{2.5, 0}, {3.5, kEstFlagLost}});
  const std::string c = encodeFin();
  const std::string stream = a + b + c;
  const Frame fa = decodeWhole(a);
  const Frame fb = decodeWhole(b);
  const Frame fc = decodeWhole(c);

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), split);
    std::vector<Frame> got;
    while (auto f = decoder.next()) got.push_back(*f);
    decoder.feed(stream.data() + split, stream.size() - split);
    while (auto f = decoder.next()) got.push_back(*f);
    ASSERT_EQ(got.size(), 3u) << "split at " << split;
    EXPECT_EQ(got[0], fa);
    EXPECT_EQ(got[1], fb);
    EXPECT_EQ(got[2], fc);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(ServeFrameDecoder, ByteAtATimeStaysLinearAndCorrect) {
  const std::string stream =
      encodeHello({1, "", ""}) + encodeFin() + encodeFin();
  FrameDecoder decoder;
  std::size_t frames = 0;
  for (const char ch : stream) {
    decoder.feed(&ch, 1);
    while (decoder.next()) ++frames;
  }
  EXPECT_EQ(frames, 3u);
}

TEST(ServeFrameDecoder, IncompleteHeaderYieldsNothing) {
  FrameDecoder decoder;
  const std::uint8_t partial[] = {0x03, 0x10, 0x00, 0x00};
  decoder.feed(partial, sizeof(partial));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 4u);
}

TEST(ServeFrameDecoder, UnknownTypeThrowsImmediately) {
  FrameDecoder decoder;
  const std::uint8_t garbage[] = {0x63, 0x01, 0x00, 0x00, 0x00};
  decoder.feed(garbage, sizeof(garbage));
  try {
    decoder.next();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Protocol);
  }
}

TEST(ServeFrameDecoder, OversizedFrameThrowsBeforeBufferingPayload) {
  FrameDecoder decoder(/*max_payload=*/16);
  // Header claims a 17-byte payload; only the header is fed — the cap
  // must trip on the claim, not after allocation.
  const std::uint8_t header[] = {0x03, 0x11, 0x00, 0x00, 0x00};
  decoder.feed(header, sizeof(header));
  try {
    decoder.next();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Oversized);
  }
}

TEST(ServeFrameDecoder, ZeroLengthPayloadFramesAreValid) {
  FrameDecoder decoder;
  const std::string fin = encodeFin();
  decoder.feed(fin.data(), fin.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::Fin);
  EXPECT_TRUE(frame->payload.empty());
}

// --- Session negotiation ------------------------------------------------

/// A tiny hand-built model (mirrors test_serialize's TinyModel): enough
/// structure for the Session to negotiate and predict without paying for
/// a real characterization run.
serialize::PsmModel tinyModel() {
  trace::VariableSet vars;
  vars.add("en", 1, trace::VarKind::Input);
  vars.add("q", 8, trace::VarKind::Output);

  std::vector<core::AtomicProposition> atoms(1);
  atoms[0].lhs = 0;
  atoms[0].op = core::CmpOp::Eq;
  atoms[0].rhs_const = BitVector(1, 1);

  core::PropositionDomain domain(vars, atoms);
  const core::PropId p0 = domain.intern(core::Signature({false}));
  const core::PropId p1 = domain.intern(core::Signature({true}));

  core::Psm psm;
  core::PowerState idle;
  idle.assertion.alts = {{{p0, p0, true}}};
  idle.power = core::PowerAttr::single(1.0e-3, 1.0e-4, 10);
  psm.addState(std::move(idle));
  core::PowerState active;
  active.assertion.alts = {{{p1, p1, true}}};
  active.power = core::PowerAttr::single(5.0e-3, 2.0e-4, 10);
  psm.addState(std::move(active));
  psm.addTransition({0, 1, p1, 1});
  psm.addTransition({1, 0, p0, 1});
  psm.addInitial(0);
  return {std::move(domain), std::move(psm)};
}

/// Session config naming the tiny model.
Session::Config tinyConfig() {
  Session::Config config;
  config.model_id = "tiny";
  return config;
}

/// Feeds bytes and splits the response back into frames.
std::vector<Frame> pump(Session& session, const std::string& bytes) {
  std::string out;
  session.consume(bytes.data(), bytes.size(), out);
  FrameDecoder decoder;
  decoder.feed(out.data(), out.size());
  std::vector<Frame> frames;
  while (auto f = decoder.next()) frames.push_back(*f);
  return frames;
}

TEST(ServeSession, HelloNegotiatesAndReportsModelShape) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, tinyConfig());
  const auto frames = pump(session, encodeHello({kProtocolVersion, "", ""}));
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::HelloOk);
  const HelloReply reply = decodeHelloOk(frames[0].payload);
  EXPECT_EQ(reply.version, kProtocolVersion);
  EXPECT_EQ(reply.model_id, "tiny");
  EXPECT_EQ(reply.states, 2u);
  EXPECT_EQ(reply.transitions, 2u);
  EXPECT_EQ(reply.variables,
            trace::formatVariableDeclaration(model.domain.variables()));
  EXPECT_EQ(session.state(), Session::State::Streaming);
}

TEST(ServeSession, VersionMismatchIsRejectedBeforeAnyRow) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, tinyConfig());
  const auto frames = pump(session, encodeHello({2, "", ""}));
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::Error);
  EXPECT_EQ(decodeError(frames[0].payload).code, ErrorCode::VersionMismatch);
  EXPECT_EQ(session.state(), Session::State::Failed);
}

TEST(ServeSession, WrongModelIdAndVariablesAreRejected) {
  const serialize::PsmModel model = tinyModel();
  {
    Session session(model, tinyConfig());
    const auto frames =
        pump(session, encodeHello({kProtocolVersion, "other", ""}));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(decodeError(frames[0].payload).code, ErrorCode::BadModel);
  }
  {
    Session session(model, tinyConfig());
    const auto frames = pump(
        session, encodeHello({kProtocolVersion, "tiny", "bogus:in:1"}));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(decodeError(frames[0].payload).code, ErrorCode::BadVariables);
  }
}

TEST(ServeSession, RowsBeforeHelloIsAProtocolError) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, tinyConfig());
  const auto frames =
      pump(session, encodeRows({{BitVector(1, 0), BitVector(8, 0)}}));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(decodeError(frames[0].payload).code, ErrorCode::Protocol);
  EXPECT_EQ(session.state(), Session::State::Failed);
}

TEST(ServeSession, StreamsRowsAndSummarizesOnFin) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, tinyConfig());
  ASSERT_EQ(pump(session, encodeHello({kProtocolVersion, "tiny", ""})).size(),
            1u);
  std::vector<std::vector<BitVector>> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back({BitVector(1, i % 2 ? 1u : 0u), BitVector(8, 0)});
  }
  const auto est_frames = pump(session, encodeRows(rows));
  ASSERT_EQ(est_frames.size(), 1u);
  ASSERT_EQ(est_frames[0].type, FrameType::Est);
  EXPECT_EQ(decodeEst(est_frames[0].payload).size(), rows.size());
  EXPECT_EQ(session.rows(), rows.size());

  const auto fin_frames = pump(session, encodeFin());
  ASSERT_EQ(fin_frames.size(), 1u);
  ASSERT_EQ(fin_frames[0].type, FrameType::FinAck);
  EXPECT_EQ(decodeFinAck(fin_frames[0].payload).rows, rows.size());
  EXPECT_EQ(session.state(), Session::State::Done);
}

TEST(ServeSession, GarbageBytesFailTheSessionWithAnErrorFrame) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, tinyConfig());
  const std::uint8_t garbage[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  std::string out;
  EXPECT_FALSE(session.consume(garbage, sizeof(garbage), out));
  FrameDecoder decoder;
  decoder.feed(out.data(), out.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::Error);
  EXPECT_EQ(session.state(), Session::State::Failed);
}

TEST(ServeSession, AbortEmitsTheGivenCodeOnce) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, tinyConfig());
  std::string out;
  session.abort(ErrorCode::Draining, "server is draining", out);
  FrameDecoder decoder;
  decoder.feed(out.data(), out.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decodeError(frame->payload).code, ErrorCode::Draining);
  // A second abort on a terminal session is a no-op.
  std::string again;
  session.abort(ErrorCode::IdleTimeout, "idle", again);
  EXPECT_TRUE(again.empty());
}

/// A model whose streams exercise every row verdict: one 2-bit input
/// "m" with an atom per value, where m=3 is no known proposition (a
/// garbage row), and a diamond s0 -p1-> s1 (x3) | s2 (x1), s1 -p0-> s0.
/// p1 in s0 is a choice, p2 in s1 a wrong prediction, a garbage row an
/// unexpected behaviour, and every recognition after a lost row a resync.
serialize::PsmModel diamondModel() {
  trace::VariableSet vars;
  vars.add("m", 2, trace::VarKind::Input);
  std::vector<core::AtomicProposition> atoms(4);
  for (unsigned k = 0; k < 4; ++k) {
    atoms[k].lhs = 0;
    atoms[k].rhs_const = BitVector(2, k);
  }
  core::PropositionDomain domain(vars, atoms);
  std::vector<core::PropId> p;
  for (unsigned k = 0; k < 3; ++k) {
    p.push_back(domain.internRow({BitVector(2, k)}));
  }

  core::Psm psm;
  core::PowerState s0;
  s0.assertion.alts = {{{p[0], p[1], true}}};
  s0.power = core::PowerAttr::single(1.0, 0.1, 100);
  s0.initial_count = 1;
  core::PowerState s1;
  s1.assertion.alts = {{{p[1], p[0], true}}};
  s1.power = core::PowerAttr::single(5.0, 0.1, 60);
  core::PowerState s2;
  s2.assertion.alts = {{{p[1], p[2], true}}};
  s2.power = core::PowerAttr::single(9.0, 0.1, 20);
  psm.addState(std::move(s0));
  psm.addState(std::move(s1));
  psm.addState(std::move(s2));
  psm.addInitial(0);
  psm.addTransition({0, 1, p[1], 3});
  psm.addTransition({0, 2, p[1], 1});
  psm.addTransition({1, 0, p[0], 3});
  return {std::move(domain), std::move(psm)};
}

TEST(ServeSession, RowFlagsTallyToTheFinAckCounters) {
  const serialize::PsmModel model = diamondModel();
  Session session(model, {});
  ASSERT_EQ(pump(session, encodeHello({kProtocolVersion, "", ""})).size(),
            1u);
  common::Rng rng(5);
  std::size_t rows = 0;
  std::size_t lost = 0;
  std::size_t wrong = 0;
  std::size_t unexpected = 0;
  std::size_t resyncs = 0;
  for (int frame = 0; frame < 12; ++frame) {
    std::vector<std::vector<BitVector>> batch;
    for (int i = 0; i < 50; ++i) {
      batch.push_back({BitVector(2, rng.uniform(4))});
    }
    const auto est_frames = pump(session, encodeRows(batch));
    ASSERT_EQ(est_frames.size(), 1u);
    ASSERT_EQ(est_frames[0].type, FrameType::Est);
    for (const EstRow& est : decodeEst(est_frames[0].payload)) {
      ++rows;
      lost += (est.flags & kEstFlagLost) != 0 ? 1 : 0;
      wrong += (est.flags & kEstFlagWrongPrediction) != 0 ? 1 : 0;
      unexpected += (est.flags & kEstFlagUnexpected) != 0 ? 1 : 0;
      resyncs += (est.flags & kEstFlagResync) != 0 ? 1 : 0;
    }
  }
  const auto fin_frames = pump(session, encodeFin());
  ASSERT_EQ(fin_frames.size(), 1u);
  ASSERT_EQ(fin_frames[0].type, FrameType::FinAck);
  const FinSummary fin = decodeFinAck(fin_frames[0].payload);
  EXPECT_EQ(fin.rows, rows);
  EXPECT_EQ(fin.lost_instants, lost);
  EXPECT_EQ(fin.wrong_predictions, wrong);
  EXPECT_EQ(fin.unexpected_behaviours, unexpected);
  EXPECT_EQ(fin.resyncs, resyncs);
  // The stream exercised every flag.
  EXPECT_GT(lost, 0u);
  EXPECT_GT(wrong, 0u);
  EXPECT_GT(unexpected, 0u);
  EXPECT_GT(resyncs, 0u);
}

// --- mutation fuzzing -----------------------------------------------------

/// A valid client byte stream (Hello, Rows frames, Fin) and the offsets
/// of its u32 length fields: each frame header's payload length, Hello's
/// two string lengths and each Rows frame's row count.
struct ClientStream {
  trace::VariableSet vars;
  std::string bytes;
  std::vector<std::size_t> length_fields;
  std::size_t frames = 0;
};

ClientStream randomClientStream(common::Rng& rng) {
  ClientStream s;
  // Widths of 1-200 bits leave padding in most last bytes and cross the
  // 64-bit limb boundaries.
  const std::uint64_t nvars = rng.range(1, 4);
  for (std::uint64_t v = 0; v < nvars; ++v) {
    s.vars.add(std::string(1, static_cast<char>('a' + v)),
               static_cast<unsigned>(rng.range(1, 200)),
               rng.chance(0.5) ? trace::VarKind::Input
                               : trace::VarKind::Output);
  }
  auto append = [&](const std::string& frame) {
    s.length_fields.push_back(s.bytes.size() + 1);
    s.bytes += frame;
    ++s.frames;
  };
  const std::string model_id(rng.uniform(6), 'm');
  s.length_fields.push_back(s.bytes.size() + 9);
  s.length_fields.push_back(s.bytes.size() + 13 + model_id.size());
  append(encodeHello(
      {kProtocolVersion, model_id, trace::formatVariableDeclaration(s.vars)}));
  for (std::uint64_t f = rng.range(1, 3); f-- > 0;) {
    std::vector<std::vector<BitVector>> rows(rng.uniform(5));
    for (auto& row : rows) {
      for (const auto& v : s.vars.all()) row.push_back(rng.bits(v.width));
    }
    s.length_fields.push_back(s.bytes.size() + 5);
    append(encodeRows(rows));
  }
  append(encodeFin());
  return s;
}

/// Applies one random mutation: a bit flip, a truncation, or an edited
/// length field (a small step, a small value, or any u32).
void mutate(std::string& bytes, const std::vector<std::size_t>& length_fields,
            common::Rng& rng) {
  switch (rng.uniform(3)) {
    case 0:  // flip one bit
      if (!bytes.empty()) {
        const std::size_t at = rng.uniform(bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform(8)));
      }
      break;
    case 1:  // cut the stream short
      bytes.resize(rng.uniform(bytes.size() + 1));
      break;
    default: {  // rewrite a length field
      const std::size_t at =
          length_fields[rng.uniform(length_fields.size())];
      if (at + 4 > bytes.size()) break;
      std::uint32_t len = 0;
      std::memcpy(&len, bytes.data() + at, 4);
      switch (rng.uniform(3)) {
        case 0:
          len += static_cast<std::uint32_t>(rng.range(1, 8)) *
                 (rng.chance(0.5) ? 1u : ~0u);
          break;
        case 1:
          len = static_cast<std::uint32_t>(rng.uniform(64));
          break;
        default:
          len = static_cast<std::uint32_t>(rng.next());
          break;
      }
      std::memcpy(bytes.data() + at, &len, 4);
      break;
    }
  }
}

/// Decodes a frame's payload with the decoder its type names and
/// re-encodes the result: every layout is canonical, so a payload that
/// decodes must come back as the same bytes. A server never reads a Fin
/// payload, so a Fin comes back as it is.
std::string reencode(const Frame& frame, const trace::VariableSet& vars) {
  switch (frame.type) {
    case FrameType::Hello:
      return encodeHello(decodeHello(frame.payload));
    case FrameType::HelloOk:
      return encodeHelloOk(decodeHelloOk(frame.payload));
    case FrameType::Rows:
      return encodeRows(decodeRows(frame.payload, vars));
    case FrameType::Est:
      return encodeEst(decodeEst(frame.payload));
    case FrameType::Fin:
      break;
    case FrameType::FinAck:
      return encodeFinAck(decodeFinAck(frame.payload));
    case FrameType::Error:
      return encodeError(decodeError(frame.payload));
  }
  return encodeFrame(frame.type, frame.payload.data(), frame.payload.size());
}

/// Feeds `bytes` to a FrameDecoder in pieces cut at up to three random
/// points, decoding every frame as it completes; returns the number of
/// frames. Throws whatever the decoder or a payload decoder throws.
std::size_t decodeStream(const std::string& bytes,
                         const trace::VariableSet& vars, common::Rng& rng) {
  std::vector<std::size_t> cuts = {0, bytes.size()};
  for (std::uint64_t k = rng.uniform(4); k-- > 0;) {
    cuts.push_back(rng.uniform(bytes.size() + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  FrameDecoder decoder;
  std::size_t frames = 0;
  for (std::size_t c = 1; c < cuts.size(); ++c) {
    decoder.feed(bytes.data() + cuts[c - 1], cuts[c] - cuts[c - 1]);
    while (const std::optional<Frame> frame = decoder.next()) {
      EXPECT_EQ(reencode(*frame, vars),
                encodeFrame(frame->type, frame->payload.data(),
                            frame->payload.size()));
      ++frames;
    }
  }
  return frames;
}

TEST(ServeProtocolProperty, MutatedFramesDecodeOrReject) {
  common::Rng rng(0x5E7E);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  ClientStream base;
  for (int m = 0; m < 4000; ++m) {
    if (m % 100 == 0) {
      // A fresh stream every 100 mutants; unmutated, it decodes whole.
      base = randomClientStream(rng);
      ASSERT_EQ(decodeStream(base.bytes, base.vars, rng), base.frames);
    }
    std::string bytes = base.bytes;
    for (std::uint64_t k = rng.range(1, 3); k-- > 0;) {
      mutate(bytes, base.length_fields, rng);
    }
    try {
      decodeStream(bytes, base.vars, rng);
      ++accepted;
    } catch (const ProtocolError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << m << " threw a non-protocol error: "
             << e.what();
    }
    ASSERT_FALSE(HasFailure()) << "mutant " << m;
  }
  // Both verdicts are exercised, so neither branch passes vacuously.
  EXPECT_GT(accepted, 400u);
  EXPECT_GT(rejected, 400u);
}

}  // namespace
}  // namespace psmgen
