// Wire-level tests for the coalesced batch record, the decoder that
// reassembles records from a link's byte stream, and the SendBuffer flush
// policy (DESIGN.md section 11). They run below any transport: the codec
// contract must hold for every socket backend.
#include "dsjoin/net/channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <thread>

namespace dsjoin::net {
namespace {

Frame make_frame(NodeId from, NodeId to, FrameKind kind, std::uint32_t tag,
                 std::size_t payload_bytes) {
  Frame f;
  f.from = from;
  f.to = to;
  f.kind = kind;
  f.piggyback_bytes = tag;
  f.payload.assign(payload_bytes, static_cast<std::uint8_t>(tag));
  return f;
}

/// Hands `bytes` to the decoder `piece` bytes at a time and decodes every
/// complete record after each piece, as a receiving link does. Returns the
/// decoder's verdict on the last record it looked at.
WireDecoder::Next feed(WireDecoder& decoder, std::span<const std::uint8_t> bytes,
                       std::vector<Frame>* out, std::size_t piece = 1 << 20) {
  WireDecoder::Next next = WireDecoder::Next::kIncomplete;
  for (std::size_t at = 0; at < bytes.size();) {
    const auto space = decoder.space();
    const std::size_t n = std::min({piece, space.size(), bytes.size() - at});
    std::memcpy(space.data(), bytes.data() + at, n);
    decoder.commit(n);
    at += n;
    while ((next = decoder.next(out)) == WireDecoder::Next::kRecord) {
    }
    if (next == WireDecoder::Next::kCorrupt) break;
  }
  return next;
}

TEST(WireBatch, SingleFrameUsesLegacyEncodingAndSavesNothing) {
  const Frame frame = make_frame(1, 2, FrameKind::kTuple, 7, 24);
  std::vector<std::uint8_t> batch;
  const auto saved = encode_wire_batch({&frame, 1}, &batch);
  EXPECT_EQ(saved, 0u);
  EXPECT_EQ(batch, encode_wire_frame(frame));
}

TEST(WireBatch, RoundTripsManyFramesThroughOneRecord) {
  std::vector<Frame> frames;
  for (std::uint32_t i = 0; i < 5; ++i) {
    frames.push_back(make_frame(3, 1, i % 2 ? FrameKind::kTuple
                                            : FrameKind::kResult,
                                i, 10 + i * 3));
  }
  std::vector<std::uint8_t> record;
  const auto saved = encode_wire_batch(frames, &record);
  // 8 bytes per extra per-frame header, minus the batch preamble overhead.
  EXPECT_EQ(saved, 8u * frames.size() - 15u);

  WireDecoder decoder(3, 1);
  std::vector<Frame> decoded;
  EXPECT_EQ(feed(decoder, record, &decoded), WireDecoder::Next::kIncomplete);
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded[i].from, frames[i].from);
    EXPECT_EQ(decoded[i].to, frames[i].to);
    EXPECT_EQ(decoded[i].kind, frames[i].kind);
    EXPECT_EQ(decoded[i].piggyback_bytes, frames[i].piggyback_bytes);
    EXPECT_EQ(decoded[i].payload, frames[i].payload);
  }
}

TEST(WireBatch, DecoderAcceptsSingleFrameRecords) {
  // A mixed stream — legacy single-frame records interleaved with batch
  // records — decodes in order through the one decoder.
  const Frame solo = make_frame(0, 1, FrameKind::kSummary, 42, 16);
  std::vector<Frame> pairs{make_frame(0, 1, FrameKind::kTuple, 1, 8),
                           make_frame(0, 1, FrameKind::kTuple, 2, 8)};
  std::vector<std::uint8_t> bytes = encode_wire_frame(solo);
  encode_wire_batch(pairs, &bytes);

  WireDecoder decoder(0, 1);
  std::vector<Frame> decoded;
  EXPECT_EQ(feed(decoder, bytes, &decoded), WireDecoder::Next::kIncomplete);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].kind, FrameKind::kSummary);
  EXPECT_EQ(decoded[1].piggyback_bytes, 1u);
  EXPECT_EQ(decoded[2].piggyback_bytes, 2u);
}

TEST(WireBatch, DecoderReassemblesRecordsSplitAnywhere) {
  // Sockets hand over bytes in arbitrary pieces: fed one byte at a time,
  // and in pieces that straddle record boundaries, the stream decodes to
  // the same frames, and no record is seen before its last byte.
  std::vector<Frame> frames;
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t i = 0; i < 12; ++i) {
    frames.push_back(make_frame(2, 0, FrameKind::kTuple, i, 5 + 40 * i));
  }
  encode_wire_batch(std::span<const Frame>(frames).first(5), &bytes);
  encode_wire_frame(frames[5], &bytes);
  encode_wire_batch(std::span<const Frame>(frames).subspan(6), &bytes);
  for (const std::size_t piece : {std::size_t{1}, std::size_t{7}, std::size_t{300}}) {
    WireDecoder decoder(2, 0);
    std::vector<Frame> decoded;
    EXPECT_EQ(feed(decoder, std::span<const std::uint8_t>(bytes).first(bytes.size() - 1),
                   &decoded, piece),
              WireDecoder::Next::kIncomplete);
    EXPECT_EQ(decoded.size(), 6u) << "piece " << piece;
    EXPECT_EQ(feed(decoder, std::span<const std::uint8_t>(bytes).last(1), &decoded),
              WireDecoder::Next::kIncomplete);
    ASSERT_EQ(decoded.size(), frames.size()) << "piece " << piece;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(decoded[i].piggyback_bytes, frames[i].piggyback_bytes);
      EXPECT_EQ(decoded[i].payload, frames[i].payload);
    }
  }
}

TEST(WireBatch, DecoderRejectsFramesForeignToItsLink) {
  // The link from node 2 to node 0 carries only node 2's frames for node
  // 0, of a known kind. A record that says otherwise is corrupt, and the
  // good record ahead of it still decodes.
  Frame bad_kind = make_frame(2, 0, FrameKind::kTuple, 3, 8);
  bad_kind.kind = static_cast<FrameKind>(7);
  const std::vector<std::vector<Frame>> bad_records{
      {make_frame(1, 0, FrameKind::kTuple, 3, 8)},  // another sender
      {make_frame(2, 3, FrameKind::kTuple, 3, 8)},  // another receiver
      {bad_kind},
      {make_frame(1, 0, FrameKind::kTuple, 3, 8),  // a batch from another
       make_frame(1, 0, FrameKind::kTuple, 4, 8)},
      {make_frame(2, 0, FrameKind::kTuple, 3, 8), bad_kind},
  };
  for (std::size_t i = 0; i < bad_records.size(); ++i) {
    std::vector<std::uint8_t> bytes =
        encode_wire_frame(make_frame(2, 0, FrameKind::kTuple, 1, 8));
    encode_wire_batch(bad_records[i], &bytes);
    WireDecoder decoder(2, 0);
    std::vector<Frame> decoded;
    EXPECT_EQ(feed(decoder, bytes, &decoded), WireDecoder::Next::kCorrupt)
        << "record " << i;
    ASSERT_EQ(decoded.size(), 1u) << "record " << i;
    EXPECT_EQ(decoded[0].piggyback_bytes, 1u);
  }
}

TEST(WireBatch, RejectsTruncatedAndOversizedRecords) {
  // Truncated batch preamble: marker present but the body ends before the
  // declared entries.
  std::vector<Frame> frames{make_frame(0, 1, FrameKind::kTuple, 1, 64),
                            make_frame(0, 1, FrameKind::kTuple, 2, 64)};
  std::vector<std::uint8_t> record;
  encode_wire_batch(frames, &record);
  {
    // Lie: shrink the length prefix so the entry table overruns the body.
    std::vector<std::uint8_t> bad = record;
    bad[0] = 20;  // body_len low byte (little-endian), far too small
    bad[1] = bad[2] = bad[3] = 0;
    WireDecoder decoder(0, 1);
    std::vector<Frame> decoded;
    EXPECT_EQ(feed(decoder, bad, &decoded), WireDecoder::Next::kCorrupt);
    EXPECT_TRUE(decoded.empty());
  }
  {
    // Declared body length over the hard cap is rejected before the body
    // arrives.
    std::array<std::uint8_t, 4> huge{0xff, 0xff, 0xff, 0x7f};
    WireDecoder decoder(0, 1);
    std::vector<Frame> decoded;
    EXPECT_EQ(feed(decoder, huge, &decoded), WireDecoder::Next::kCorrupt);
  }
}

TEST(SendBuffer, FlushesOnFrameBudget) {
  CoalesceOptions options;
  options.max_frames = 3;
  options.linger_s = 3600.0;  // never trip on age in this test
  SendBuffer buffer(options);
  EXPECT_FALSE(buffer.push(make_frame(0, 1, FrameKind::kTuple, 1, 8)));
  EXPECT_FALSE(buffer.push(make_frame(0, 1, FrameKind::kTuple, 2, 8)));
  EXPECT_TRUE(buffer.push(make_frame(0, 1, FrameKind::kTuple, 3, 8)));
  EXPECT_EQ(buffer.frame_count(), 3u);

  std::vector<std::uint8_t> bytes;
  EXPECT_EQ(buffer.flush(&bytes), 8u * 3 - 15u);
  EXPECT_TRUE(buffer.empty());
  WireDecoder decoder(0, 1);
  std::vector<Frame> decoded;
  EXPECT_EQ(feed(decoder, bytes, &decoded), WireDecoder::Next::kIncomplete);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[2].piggyback_bytes, 3u);
}

TEST(SendBuffer, FlushesOnByteBudgetAndOnControlFrames) {
  CoalesceOptions options;
  options.max_frames = 100;
  options.max_bytes = 64;
  options.linger_s = 3600.0;
  SendBuffer buffer(options);
  EXPECT_FALSE(buffer.push(make_frame(0, 1, FrameKind::kTuple, 1, 32)));
  // 64 pending payload bytes reach the budget.
  EXPECT_TRUE(buffer.push(make_frame(0, 1, FrameKind::kTuple, 2, 32)));

  std::vector<std::uint8_t> bytes;
  buffer.flush(&bytes);

  // Control frames must never wait in a buffer: the drain handshake relies
  // on FIN ordering behind all previously sent frames.
  EXPECT_FALSE(buffer.push(make_frame(0, 1, FrameKind::kTuple, 3, 8)));
  EXPECT_TRUE(buffer.push(make_frame(0, 1, FrameKind::kControl, 4, 8)));
  buffer.flush(&bytes);  // appended behind the first record

  WireDecoder decoder(0, 1);
  std::vector<Frame> decoded;
  EXPECT_EQ(feed(decoder, bytes, &decoded), WireDecoder::Next::kIncomplete);
  ASSERT_EQ(decoded.size(), 4u);
  EXPECT_EQ(decoded[3].kind, FrameKind::kControl);
}

TEST(SendBuffer, LingerAgeTripsTheNextPush) {
  CoalesceOptions options;
  options.max_frames = 100;
  options.linger_s = 0.01;
  SendBuffer buffer(options);
  EXPECT_FALSE(buffer.push(make_frame(0, 1, FrameKind::kTuple, 1, 8)));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // The next push sees the oldest pending frame over the linger budget.
  EXPECT_TRUE(buffer.push(make_frame(0, 1, FrameKind::kTuple, 2, 8)));
}

}  // namespace
}  // namespace dsjoin::net
