// TCP plumbing shared by every real-socket component.
//
// The data mesh (MeshTransport, and TcpTransport's N of them) and the
// coordinator/daemon control plane speak the same length-prefixed framing
// over loopback/LAN TCP. This header centralizes the pieces they share:
// RAII descriptors, listen/connect helpers (including capped
// exponential-backoff dialing, needed while a distributed mesh forms and
// peers come up in arbitrary order), the data-plane frame codec, and a
// typed message socket for the control plane.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsjoin/common/status.hpp"
#include "dsjoin/net/frame.hpp"

namespace dsjoin::net {

/// RAII file descriptor.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// A dialable TCP address.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Binds and listens on IPv4 `port` (0 picks an ephemeral port; read the
/// actual one back with bound_port).
common::Result<UniqueFd> tcp_listen(std::uint16_t port, int backlog);

/// The locally bound port of a socket (after tcp_listen with port 0).
common::Result<std::uint16_t> bound_port(int fd);

/// Accepts one connection within `timeout_s`; kUnavailable on timeout.
common::Result<UniqueFd> tcp_accept(int listener_fd, double timeout_s);

/// One blocking connect attempt (TCP_NODELAY set on success).
common::Result<UniqueFd> tcp_connect(const Endpoint& endpoint);

/// Dials until success or `timeout_s` elapses, sleeping between attempts
/// with capped exponential backoff (base_delay, 2x per failure, capped at
/// max_delay). This is the mesh-formation path: daemons start in arbitrary
/// order, so early dials routinely meet ECONNREFUSED.
common::Result<UniqueFd> tcp_connect_retry(const Endpoint& endpoint,
                                           double timeout_s,
                                           double base_delay_s = 0.05,
                                           double max_delay_s = 1.0);

/// Writes all of `data`, retrying short writes and EINTR. False on error.
bool write_all(int fd, const std::uint8_t* data, std::size_t n);

/// Reads exactly `n` bytes. False on EOF or error.
bool read_exact(int fd, std::uint8_t* out, std::size_t n);

// --- Data-plane frame codec ---
//
// Wire format per single frame: u32 body length | u8 kind | u32 from |
// u32 to | u32 piggyback_bytes | payload.
//
// Coalesced record (many logical frames, one length header): the body
// starts with marker byte 0xFF — unambiguous, since a single frame's
// body starts with its FrameKind (0..3) — followed by
//   u16 count | u32 from | u32 to |
//   count x { u8 kind | u32 piggyback_bytes | u32 payload_len | payload }.
// All frames in a record share one directed link, hence one (from, to).
// Relative to `count` single-frame records the shared header saves
// 8*count - 15 bytes (positive from count = 2 up).

/// Serialized size prefix + body for one frame.
std::vector<std::uint8_t> encode_wire_frame(const Frame& frame);

/// Same encoding, appended to `*out`.
void encode_wire_frame(const Frame& frame, std::vector<std::uint8_t>* out);

/// Appends `frames` (all sharing frames[0]'s from/to) to `*out` as one
/// coalesced record. A single frame uses the plain single-frame encoding.
/// Returns the header bytes saved vs per-frame records (0 when
/// frames.size() <= 1).
std::uint64_t encode_wire_batch(std::span<const Frame> frames,
                                std::vector<std::uint8_t>* out);

/// Reassembles the wire records of one directed link from its byte stream,
/// which arrives in pieces of any size: read into space(), commit() what
/// was read, then take complete records from next(). A link carries only
/// its peer's frames to this node, so a record is corrupt when its length
/// is out of range, its entries do not fill its body exactly, a frame's
/// kind is not a FrameKind, or it names a sender other than the link's
/// peer or a receiver other than this node.
class WireDecoder {
 public:
  enum class Next { kRecord, kIncomplete, kCorrupt };

  WireDecoder() = default;
  /// @param from  the link's peer; @param to  this node.
  WireDecoder(NodeId from, NodeId to) : from_(from), to_(to) {}

  /// Free space after the buffered bytes, at least enough for the rest of
  /// the pending record. Call once next() has returned kIncomplete.
  std::span<std::uint8_t> space();

  /// Marks the first `n` bytes of space() as received.
  void commit(std::size_t n) noexcept { end_ += n; }

  /// Decodes the next complete record, appending its frames to `*out` in
  /// send order (kRecord). kIncomplete leaves `*out` alone until more
  /// bytes arrive; after kCorrupt the stream cannot be trusted further.
  Next next(std::vector<Frame>* out);

 private:
  NodeId from_ = 0;
  NodeId to_ = 0;
  std::vector<std::uint8_t> buffer_;
  std::size_t begin_ = 0;  // first byte not yet decoded
  std::size_t end_ = 0;    // one past the last byte received
};

// --- Frame coalescing ---

/// Flush budgets for a per-peer SendBuffer. A buffer flushes when it holds
/// max_frames frames, its payload bytes reach max_bytes, the oldest
/// pending frame is older than linger_s, or a kControl frame is appended
/// (control frames order the drain protocol, so they must never sit in a
/// buffer). max_frames = 1 degenerates to the per-frame wire path.
struct CoalesceOptions {
  std::size_t max_frames = 1;
  std::size_t max_bytes = 1 << 16;
  double linger_s = 0.005;
};

/// Accumulates frames bound for one directed peer link and encodes them as
/// coalesced wire records. Not thread-safe: the owning transport guards
/// each instance with its per-peer send lock.
class SendBuffer {
 public:
  SendBuffer() = default;
  explicit SendBuffer(CoalesceOptions options);

  /// Takes ownership of `frame`. Returns true if the buffer must be
  /// flushed now (a budget tripped or the frame is kControl).
  bool push(Frame&& frame);

  bool empty() const noexcept { return pending_.empty(); }
  std::size_t frame_count() const noexcept { return pending_.size(); }

  /// Appends all pending frames to `*out` as one wire record and empties
  /// the buffer. Returns the header bytes saved (0 for an empty buffer).
  std::uint64_t flush(std::vector<std::uint8_t>* out);

 private:
  CoalesceOptions options_;
  std::vector<Frame> pending_;
  std::size_t pending_payload_bytes_ = 0;
  std::chrono::steady_clock::time_point oldest_{};
};

// --- Control-plane message socket ---

/// One typed control-plane message (the body encoding is the caller's).
struct ControlMessage {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// A connected socket carrying length-prefixed typed messages:
/// u32 length | u8 type | payload. Sends are locked (a daemon's heartbeat
/// and its main loop may share the socket); receives belong to one thread.
/// Movable (the send mutex lives on the heap) — but only while no other
/// thread is using the source.
class MsgSocket {
 public:
  MsgSocket() = default;
  explicit MsgSocket(UniqueFd fd) noexcept : fd_(std::move(fd)) {}
  MsgSocket(MsgSocket&&) = default;
  MsgSocket& operator=(MsgSocket&&) = default;

  bool valid() const noexcept { return fd_.valid(); }
  int fd() const noexcept { return fd_.get(); }

  common::Status send_msg(std::uint8_t type,
                          std::span<const std::uint8_t> payload);

  /// Waits up to `timeout_s` for one message.
  ///   kUnavailable -> timed out (retryable; the peer is simply quiet)
  ///   kDataLoss    -> peer closed the connection or sent garbage
  common::Result<ControlMessage> recv_msg(double timeout_s);

  /// Half-closes and closes the socket; recv on the peer sees EOF.
  void close() noexcept;

 private:
  UniqueFd fd_;
  std::unique_ptr<std::mutex> send_mutex_ = std::make_unique<std::mutex>();
};

}  // namespace dsjoin::net
