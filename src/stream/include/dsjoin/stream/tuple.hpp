// Stream tuples.
//
// The paper joins two streams R and S on an integer attribute (synthetic
// keys in [1, 2^19]; stock prices; packet trace fields). A tuple here
// carries the joining attribute, its origin, and a virtual timestamp; the
// globally unique id lets the metrics collector deduplicate reported result
// pairs.
#pragma once

#include <compare>
#include <cstdint>

#include "dsjoin/common/serialize.hpp"
#include "dsjoin/common/status.hpp"
#include "dsjoin/net/frame.hpp"

namespace dsjoin::stream {

/// Which of the two joined streams a tuple belongs to.
enum class StreamSide : std::uint8_t { kR = 0, kS = 1 };

/// The stream a tuple joins against.
constexpr StreamSide opposite(StreamSide side) noexcept {
  return side == StreamSide::kR ? StreamSide::kS : StreamSide::kR;
}

constexpr const char* to_string(StreamSide side) noexcept {
  return side == StreamSide::kR ? "R" : "S";
}

/// One stream element.
struct Tuple {
  std::uint64_t id = 0;        ///< globally unique (assigned by the driver)
  std::int64_t key = 0;        ///< the joining attribute
  double timestamp = 0.0;      ///< virtual arrival time at the origin node
  net::NodeId origin = 0;      ///< node where the tuple first arrived
  StreamSide side = StreamSide::kR;

  /// Wire encoding (26 bytes).
  void serialize(common::BufferWriter& out) const {
    out.write_u64(id);
    out.write_i64(key);
    out.write_f64(timestamp);
    out.write_u8(static_cast<std::uint8_t>(side));
    out.write_u8(static_cast<std::uint8_t>(origin));
  }

  static common::Result<Tuple> deserialize(common::BufferReader& in) {
    Tuple t;
    auto id = in.read_u64();
    if (!id) return id.status();
    auto key = in.read_i64();
    if (!key) return key.status();
    auto ts = in.read_f64();
    if (!ts) return ts.status();
    auto side = in.read_u8();
    if (!side) return side.status();
    auto origin = in.read_u8();
    if (!origin) return origin.status();
    if (side.value() > 1) {
      return common::Status(common::ErrorCode::kDataLoss, "bad stream side");
    }
    t.id = id.value();
    t.key = key.value();
    t.timestamp = ts.value();
    t.side = static_cast<StreamSide>(side.value());
    t.origin = origin.value();
    return t;
  }
};

/// A reported join pair, identified by the two tuple ids (R first).
/// Ordered by (r_id, s_id): the order of every sorted pair list.
struct ResultPair {
  std::uint64_t r_id = 0;
  std::uint64_t s_id = 0;

  friend bool operator==(const ResultPair&, const ResultPair&) = default;
  friend auto operator<=>(const ResultPair&, const ResultPair&) = default;
};

/// Hash for ResultPair. Result accounting keeps sorted lists; the one hash
/// user is the online controller's feedback path, which remembers recently
/// credited pairs by hash (Node::absorb_result_feedback).
struct ResultPairHash {
  std::size_t operator()(const ResultPair& p) const noexcept {
    // splitmix-style combine of the two ids
    std::uint64_t z = p.r_id * 0x9e3779b97f4a7c15ULL ^ (p.s_id + 0x7f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

}  // namespace dsjoin::stream
