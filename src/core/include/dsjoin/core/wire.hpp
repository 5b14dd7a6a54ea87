// Payload encodings for the core protocol.
//
// Three frame bodies ride on net::Frame:
//  * TuplePayload   — a forwarded tuple, optionally with a piggybacked
//                     summary block (Figure 7, line 5: coefficient updates
//                     ride on tuple messages);
//  * SummaryPayload — a standalone summary block (sent when a peer has not
//                     received a tuple for a while, or for policies whose
//                     summaries are periodic snapshots);
//  * ResultPayload  — join-result pairs shipped to the owning node
//                     ("matching tuples must still be transmitted").
//
// A summary block is opaque to the node: only the emitting policy reads it.
//
// Every summary exchange carries a SummaryStamp: the virtual time of the
// local tuple whose processing emitted it plus a per-link sequence number.
// Receivers buffer stamped summaries and apply them at the stamp's
// visibility boundary (SystemConfig::summary_visible_time), so routing
// state is a pure function of virtual time, never of transport latency.
// Tuple frames carry the stamp only when a piggyback block rides along —
// plain tuple traffic pays zero bytes for it.
//
// Every payload carries a trailing 32-bit checksum; decoders verify it, so
// in-flight corruption is always detected (kDataLoss) rather than
// interpreted as a different tuple or coefficient.
#pragma once

#include <cstdint>
#include <vector>

#include "dsjoin/common/serialize.hpp"
#include "dsjoin/common/status.hpp"
#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::core {

/// An opaque, policy-defined summary block.
struct SummaryBlock {
  std::vector<std::uint8_t> bytes;

  bool empty() const noexcept { return bytes.empty(); }
  std::size_t size() const noexcept { return bytes.size(); }
};

/// Version byte prefixed to every encoded SummaryStamp; decoders reject
/// stamps from a different stamp format outright.
inline constexpr std::uint8_t kSummaryStampVersion = 1;

/// Virtual-time stamp on a summary exchange.
struct SummaryStamp {
  /// Timestamp of the local tuple whose processing emitted the summary —
  /// backend-independent by construction. Must be finite and >= 0.
  double emit_time = 0.0;
  /// Emission counter per (sender -> receiver) link; orders same-boundary
  /// summaries from one peer canonically.
  std::uint32_t seq = 0;
};

/// Tuple frame body.
///
/// In multi-query mode (encode/decode with `with_query_ids` true, control
/// protocol v6) the frame additionally carries `query_mask`: bit k set means
/// the query at canonical index k in the sender's registered-query list
/// routed this tuple. Single-query traffic never pays the extra bytes and
/// stays byte-identical to the historical layout.
struct TuplePayload {
  stream::Tuple tuple;
  SummaryBlock piggyback;  ///< may be empty
  SummaryStamp stamp;      ///< on the wire only when piggyback is non-empty
  std::uint64_t query_mask = 0;  ///< on the wire only in multi-query mode

  std::vector<std::uint8_t> encode() const { return encode(false); }
  std::vector<std::uint8_t> encode(bool with_query_ids) const;
  static common::Result<TuplePayload> decode(
      std::span<const std::uint8_t> bytes, bool with_query_ids = false);
};

/// Standalone summary frame body.
struct SummaryPayload {
  SummaryBlock block;
  SummaryStamp stamp;

  std::vector<std::uint8_t> encode() const;
  static common::Result<SummaryPayload> decode(
      std::span<const std::uint8_t> bytes);
};

/// Result-shipment frame body. In multi-query mode each shipment belongs to
/// exactly one query (`query_id`), so the origin credits its controller for
/// that query only; single-query traffic omits the field.
struct ResultPayload {
  std::vector<stream::ResultPair> pairs;
  std::uint32_t query_id = 0;  ///< on the wire only in multi-query mode

  std::vector<std::uint8_t> encode() const { return encode(false); }
  std::vector<std::uint8_t> encode(bool with_query_ids) const {
    return encode(pairs, query_id, with_query_ids);
  }
  /// The encoding of a payload holding `pairs` and `query_id`, read
  /// straight from the span: the returned bytes are its one allocation.
  static std::vector<std::uint8_t> encode(
      std::span<const stream::ResultPair> pairs, std::uint32_t query_id,
      bool with_query_ids);
  static common::Result<ResultPayload> decode(
      std::span<const std::uint8_t> bytes, bool with_query_ids = false);
};

/// 32-bit content checksum used by the payload codecs (exposed for tests).
std::uint32_t payload_checksum(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace dsjoin::core
