#include "dsjoin/core/wire.hpp"

#include <cmath>

namespace dsjoin::core {

using common::BufferReader;
using common::BufferWriter;
using common::ErrorCode;
using common::Result;
using common::Status;

std::uint32_t payload_checksum(std::span<const std::uint8_t> bytes) noexcept {
  // splitmix-style rolling mix; 32 bits is plenty against single-bit flips.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

namespace {

// The trailing checksum's size. Every encoder reserves room for it (the
// tuple and summary encoders' slack covers it), so sealing appends without
// regrowing the buffer.
constexpr std::size_t kChecksumBytes = 4;

std::vector<std::uint8_t> seal(BufferWriter&& writer) {
  auto bytes = std::move(writer).take();
  const std::uint32_t sum = payload_checksum(bytes);
  bytes.push_back(static_cast<std::uint8_t>(sum));
  bytes.push_back(static_cast<std::uint8_t>(sum >> 8));
  bytes.push_back(static_cast<std::uint8_t>(sum >> 16));
  bytes.push_back(static_cast<std::uint8_t>(sum >> 24));
  return bytes;
}

// Verifies and strips the trailing checksum; empty on failure.
Result<std::span<const std::uint8_t>> unseal(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) {
    return Status(ErrorCode::kDataLoss, "payload too short for checksum");
  }
  const auto body = bytes.first(bytes.size() - 4);
  const auto tail = bytes.last(4);
  const std::uint32_t stored = static_cast<std::uint32_t>(tail[0]) |
                               (static_cast<std::uint32_t>(tail[1]) << 8) |
                               (static_cast<std::uint32_t>(tail[2]) << 16) |
                               (static_cast<std::uint32_t>(tail[3]) << 24);
  if (stored != payload_checksum(body)) {
    return Status(ErrorCode::kDataLoss, "payload checksum mismatch");
  }
  return body;
}

void write_stamp(const SummaryStamp& stamp, BufferWriter& out) {
  out.write_u8(kSummaryStampVersion);
  out.write_f64(stamp.emit_time);
  out.write_u32(stamp.seq);
}

Result<SummaryStamp> read_stamp(BufferReader& in) {
  auto version = in.read_u8();
  if (!version) return version.status();
  if (version.value() != kSummaryStampVersion) {
    return Status(ErrorCode::kDataLoss, "unsupported summary stamp version");
  }
  auto emit = in.read_f64();
  if (!emit) return emit.status();
  if (!std::isfinite(emit.value()) || emit.value() < 0.0) {
    return Status(ErrorCode::kDataLoss, "summary stamp emit time out of range");
  }
  auto seq = in.read_u32();
  if (!seq) return seq.status();
  SummaryStamp stamp;
  stamp.emit_time = emit.value();
  stamp.seq = seq.value();
  return stamp;
}

}  // namespace

std::vector<std::uint8_t> TuplePayload::encode(bool with_query_ids) const {
  BufferWriter out(64 + piggyback.size());
  tuple.serialize(out);
  if (with_query_ids) out.write_u64(query_mask);
  out.write_u32(static_cast<std::uint32_t>(piggyback.bytes.size()));
  // The stamp rides only alongside a piggybacked summary: tuple frames
  // without one carry zero stamp bytes (the bench acceptance bar).
  if (!piggyback.bytes.empty()) {
    write_stamp(stamp, out);
    out.write_raw(piggyback.bytes);
  }
  return seal(std::move(out));
}

Result<TuplePayload> TuplePayload::decode(std::span<const std::uint8_t> bytes,
                                          bool with_query_ids) {
  auto body = unseal(bytes);
  if (!body) return body.status();
  BufferReader in(body.value());
  auto tuple = stream::Tuple::deserialize(in);
  if (!tuple) return tuple.status();
  TuplePayload out;
  if (with_query_ids) {
    auto mask = in.read_u64();
    if (!mask) return mask.status();
    out.query_mask = mask.value();
  }
  auto piggy_len = in.read_u32();
  if (!piggy_len) return piggy_len.status();
  out.tuple = tuple.value();
  if (piggy_len.value() > 0) {
    auto stamp = read_stamp(in);
    if (!stamp) return stamp.status();
    out.stamp = stamp.value();
    if (in.remaining() < piggy_len.value()) {
      return Status(ErrorCode::kDataLoss, "truncated piggyback block");
    }
    out.piggyback.bytes.resize(piggy_len.value());
    for (auto& b : out.piggyback.bytes) {
      b = in.read_u8().value();  // length checked above
    }
  }
  return out;
}

std::vector<std::uint8_t> SummaryPayload::encode() const {
  BufferWriter out(25 + block.size());
  // Stamp first: the virtual-time header sits at a fixed offset so tooling
  // (and the fuzz corpus) can patch it without re-parsing the block.
  write_stamp(stamp, out);
  out.write_u32(static_cast<std::uint32_t>(block.bytes.size()));
  out.write_raw(block.bytes);
  return seal(std::move(out));
}

Result<SummaryPayload> SummaryPayload::decode(std::span<const std::uint8_t> bytes) {
  auto body = unseal(bytes);
  if (!body) return body.status();
  BufferReader in(body.value());
  auto stamp = read_stamp(in);
  if (!stamp) return stamp.status();
  auto len = in.read_u32();
  if (!len) return len.status();
  if (in.remaining() < len.value()) {
    return Status(ErrorCode::kDataLoss, "truncated summary block");
  }
  SummaryPayload out;
  out.stamp = stamp.value();
  out.block.bytes.resize(len.value());
  for (auto& b : out.block.bytes) b = in.read_u8().value();
  return out;
}

std::vector<std::uint8_t> ResultPayload::encode(
    std::span<const stream::ResultPair> pairs, std::uint32_t query_id,
    bool with_query_ids) {
  // Query id, count, the pairs and the checksum.
  BufferWriter out(4 + 4 + pairs.size() * 16 + kChecksumBytes);
  if (with_query_ids) out.write_u32(query_id);
  out.write_u32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& p : pairs) {
    out.write_u64(p.r_id);
    out.write_u64(p.s_id);
  }
  return seal(std::move(out));
}

Result<ResultPayload> ResultPayload::decode(std::span<const std::uint8_t> bytes,
                                            bool with_query_ids) {
  auto body = unseal(bytes);
  if (!body) return body.status();
  BufferReader in(body.value());
  ResultPayload out;
  if (with_query_ids) {
    auto id = in.read_u32();
    if (!id) return id.status();
    out.query_id = id.value();
  }
  auto count = in.read_u32();
  if (!count) return count.status();
  if (in.remaining() < static_cast<std::size_t>(count.value()) * 16) {
    return Status(ErrorCode::kDataLoss, "truncated result payload");
  }
  out.pairs.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    const auto r = in.read_u64().value();
    const auto s = in.read_u64().value();
    out.pairs.push_back(stream::ResultPair{r, s});
  }
  return out;
}

}  // namespace dsjoin::core
