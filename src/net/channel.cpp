#include "dsjoin/net/channel.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "dsjoin/common/strformat.hpp"

namespace dsjoin::net {

namespace {

constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 4 + 4 + 4;
// Sanity cap on any length prefix read off the wire (64 MiB).
constexpr std::uint32_t kMaxBodyBytes = 1u << 26;
// First body byte of a coalesced multi-frame record; single-frame records
// start with a FrameKind (0..3), so the two are unambiguous.
constexpr std::uint8_t kBatchMarker = 0xFF;
// A WireDecoder's buffer: room for this much, or for the pending record.
constexpr std::size_t kReadBytes = 16 * 1024;

common::Status errno_status(const char* what) {
  return common::Status(
      common::ErrorCode::kUnavailable,
      common::str_format("%s: %s", what, std::strerror(errno)));
}

void put_u32(std::uint8_t* at, std::uint32_t v) { std::memcpy(at, &v, 4); }
std::uint32_t get_u32(const std::uint8_t* at) {
  std::uint32_t v;
  std::memcpy(&v, at, 4);
  return v;
}

common::Result<sockaddr_in> make_addr(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    return common::Status(common::ErrorCode::kInvalidArgument,
                          "bad IPv4 address: " + endpoint.host);
  }
  return addr;
}

}  // namespace

void UniqueFd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

common::Result<UniqueFd> tcp_listen(std::uint16_t port, int backlog) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_status("socket");
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return errno_status("bind");
  }
  if (::listen(fd.get(), backlog) != 0) return errno_status("listen");
  return fd;
}

common::Result<std::uint16_t> bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return errno_status("getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

common::Result<UniqueFd> tcp_accept(int listener_fd, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return common::Status(common::ErrorCode::kUnavailable,
                            "timed out waiting for a connection");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    pollfd pfd{listener_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()) + 1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return errno_status("poll");
    }
    if (ready == 0) continue;
    UniqueFd fd(::accept(listener_fd, nullptr, nullptr));
    if (!fd.valid()) {
      if (errno == EINTR) continue;
      return errno_status("accept");
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }
}

common::Result<UniqueFd> tcp_connect(const Endpoint& endpoint) {
  auto addr = make_addr(endpoint);
  if (!addr) return addr.status();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_status("socket");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr.value()),
                sizeof(sockaddr_in)) != 0) {
    return errno_status("connect");
  }
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

common::Result<UniqueFd> tcp_connect_retry(const Endpoint& endpoint,
                                           double timeout_s,
                                           double base_delay_s,
                                           double max_delay_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  double delay = base_delay_s;
  for (;;) {
    auto fd = tcp_connect(endpoint);
    if (fd) return fd;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return common::Status(
          common::ErrorCode::kUnavailable,
          common::str_format("connect to %s:%u timed out after %.1fs (%s)",
                             endpoint.host.c_str(), endpoint.port, timeout_s,
                             fd.status().message().c_str()));
    }
    auto sleep_for = std::chrono::duration<double>(delay);
    const auto remaining =
        std::chrono::duration_cast<std::chrono::duration<double>>(deadline - now);
    if (sleep_for > remaining) sleep_for = remaining;
    std::this_thread::sleep_for(sleep_for);
    delay = std::min(delay * 2.0, max_delay_s);
  }
}

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t sent = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(sent);
  }
  return true;
}

bool read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd, out + done, n - done, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;  // peer closed or error
    }
    done += static_cast<std::size_t>(got);
  }
  return true;
}

std::vector<std::uint8_t> encode_wire_frame(const Frame& frame) {
  std::vector<std::uint8_t> buffer;
  encode_wire_frame(frame, &buffer);
  return buffer;
}

void encode_wire_frame(const Frame& frame, std::vector<std::uint8_t>* out) {
  const std::size_t base = out->size();
  out->resize(base + kFrameHeaderBytes + frame.payload.size());
  std::uint8_t* at = out->data() + base;
  put_u32(at, static_cast<std::uint32_t>(1 + 4 + 4 + 4 + frame.payload.size()));
  at[4] = static_cast<std::uint8_t>(frame.kind);
  put_u32(at + 5, frame.from);
  put_u32(at + 9, frame.to);
  put_u32(at + 13, frame.piggyback_bytes);
  if (!frame.payload.empty()) {
    std::memcpy(at + kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
}

std::uint64_t encode_wire_batch(std::span<const Frame> frames,
                                std::vector<std::uint8_t>* out) {
  if (frames.empty()) return 0;
  if (frames.size() == 1) {
    encode_wire_frame(frames[0], out);
    return 0;
  }
  std::size_t payload_bytes = 0;
  for (const Frame& f : frames) payload_bytes += f.payload.size();
  const std::size_t body_len = 1 + 2 + 4 + 4 + frames.size() * 9 + payload_bytes;
  const std::size_t base = out->size();
  out->resize(base + 4 + body_len);
  std::uint8_t* at = out->data() + base;
  put_u32(at, static_cast<std::uint32_t>(body_len));
  at[4] = kBatchMarker;
  const std::uint16_t count = static_cast<std::uint16_t>(frames.size());
  std::memcpy(at + 5, &count, 2);
  put_u32(at + 7, frames[0].from);
  put_u32(at + 11, frames[0].to);
  at += 15;
  for (const Frame& f : frames) {
    at[0] = static_cast<std::uint8_t>(f.kind);
    put_u32(at + 1, f.piggyback_bytes);
    put_u32(at + 5, static_cast<std::uint32_t>(f.payload.size()));
    if (!f.payload.empty()) {
      std::memcpy(at + 9, f.payload.data(), f.payload.size());
    }
    at += 9 + f.payload.size();
  }
  // Per-frame records would spend 17 header bytes each; the shared batch
  // header spends 15 + 9 per frame.
  return 8u * frames.size() - 15u;
}

std::span<std::uint8_t> WireDecoder::space() {
  // Every complete record has been taken, so the held bytes are a prefix
  // of the pending one; the buffer needs room for all of it.
  const std::size_t held = end_ - begin_;
  std::size_t need = kReadBytes;
  if (held >= 4) {
    const std::size_t record = 4 + std::size_t{get_u32(buffer_.data() + begin_)};
    if (record <= 4 + kMaxBodyBytes) need = std::max(need, record);
  }
  if (buffer_.size() - begin_ < need) {
    // Move the pending bytes to the front; grow only if that is not enough.
    if (held > 0) std::memmove(buffer_.data(), buffer_.data() + begin_, held);
    begin_ = 0;
    end_ = held;
    if (buffer_.size() < need) buffer_.resize(need);
  }
  return {buffer_.data() + end_, buffer_.size() - end_};
}

WireDecoder::Next WireDecoder::next(std::vector<Frame>* out) {
  const std::size_t held = end_ - begin_;
  if (held < 4) return Next::kIncomplete;
  const std::uint32_t body_len = get_u32(buffer_.data() + begin_);
  if (body_len < 13 || body_len > kMaxBodyBytes) return Next::kCorrupt;
  if (held - 4 < body_len) return Next::kIncomplete;
  const std::uint8_t* body = buffer_.data() + begin_ + 4;
  const std::size_t first = out->size();
  const auto corrupt = [&] {
    out->resize(first);  // deliver nothing of a corrupt record
    return Next::kCorrupt;
  };
  const auto valid_kind = [](std::uint8_t kind) {
    return kind <= static_cast<std::uint8_t>(FrameKind::kControl);
  };
  if (body[0] != kBatchMarker) {  // plain single-frame record
    if (!valid_kind(body[0]) || get_u32(body + 1) != from_ ||
        get_u32(body + 5) != to_) {
      return corrupt();
    }
    Frame& frame = out->emplace_back();
    frame.kind = static_cast<FrameKind>(body[0]);
    frame.from = from_;
    frame.to = to_;
    frame.piggyback_bytes = get_u32(body + 9);
    frame.payload.assign(body + 13, body + body_len);
    begin_ += 4 + body_len;
    return Next::kRecord;
  }
  std::uint16_t count;
  std::memcpy(&count, body + 1, 2);
  if (count == 0 || get_u32(body + 3) != from_ || get_u32(body + 7) != to_) {
    return corrupt();
  }
  std::size_t offset = 11;  // marker + count + from + to
  for (std::uint16_t i = 0; i < count; ++i) {
    if (offset + 9 > body_len || !valid_kind(body[offset])) return corrupt();
    const std::uint32_t payload_len = get_u32(body + offset + 5);
    if (payload_len > body_len - offset - 9) return corrupt();
    Frame& frame = out->emplace_back();
    frame.kind = static_cast<FrameKind>(body[offset]);
    frame.from = from_;
    frame.to = to_;
    frame.piggyback_bytes = get_u32(body + offset + 1);
    offset += 9;
    frame.payload.assign(body + offset, body + offset + payload_len);
    offset += payload_len;
  }
  if (offset != body_len) return corrupt();
  begin_ += 4 + body_len;
  return Next::kRecord;
}

SendBuffer::SendBuffer(CoalesceOptions options) : options_(options) {
  if (options_.max_frames == 0) options_.max_frames = 1;
  // The batch record's count field is a u16.
  options_.max_frames = std::min<std::size_t>(options_.max_frames, 0xFFFF);
}

bool SendBuffer::push(Frame&& frame) {
  if (pending_.empty()) oldest_ = std::chrono::steady_clock::now();
  pending_payload_bytes_ += frame.payload.size();
  const bool control = frame.kind == FrameKind::kControl;
  pending_.push_back(std::move(frame));
  if (control) return true;
  if (pending_.size() >= options_.max_frames) return true;
  if (pending_payload_bytes_ >= options_.max_bytes) return true;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       oldest_)
             .count() >= options_.linger_s;
}

std::uint64_t SendBuffer::flush(std::vector<std::uint8_t>* out) {
  if (pending_.empty()) return 0;
  const std::uint64_t saved = encode_wire_batch(pending_, out);
  pending_.clear();
  pending_payload_bytes_ = 0;
  return saved;
}

common::Status MsgSocket::send_msg(std::uint8_t type,
                                   std::span<const std::uint8_t> payload) {
  if (!fd_.valid()) {
    return common::Status(common::ErrorCode::kUnavailable, "socket closed");
  }
  std::vector<std::uint8_t> buffer(4 + 1 + payload.size());
  put_u32(buffer.data(), static_cast<std::uint32_t>(1 + payload.size()));
  buffer[4] = type;
  if (!payload.empty()) {
    std::memcpy(buffer.data() + 5, payload.data(), payload.size());
  }
  std::lock_guard lock(*send_mutex_);
  if (!write_all(fd_.get(), buffer.data(), buffer.size())) {
    return common::Status(common::ErrorCode::kDataLoss, "control write failed");
  }
  return common::Status::ok();
}

common::Result<ControlMessage> MsgSocket::recv_msg(double timeout_s) {
  if (!fd_.valid()) {
    return common::Status(common::ErrorCode::kDataLoss, "socket closed");
  }
  pollfd pfd{fd_.get(), POLLIN, 0};
  const int timeout_ms =
      timeout_s < 0 ? -1 : static_cast<int>(timeout_s * 1000.0);
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) {
    return common::Status(common::ErrorCode::kUnavailable, "recv timeout");
  }
  if (ready < 0) return errno_status("poll");
  std::uint8_t len_buf[4];
  if (!read_exact(fd_.get(), len_buf, 4)) {
    return common::Status(common::ErrorCode::kDataLoss, "peer closed");
  }
  const std::uint32_t body_len = get_u32(len_buf);
  if (body_len < 1 || body_len > kMaxBodyBytes) {
    return common::Status(common::ErrorCode::kDataLoss, "corrupt message length");
  }
  std::vector<std::uint8_t> body(body_len);
  if (!read_exact(fd_.get(), body.data(), body_len)) {
    return common::Status(common::ErrorCode::kDataLoss, "truncated message");
  }
  ControlMessage msg;
  msg.type = body[0];
  msg.payload.assign(body.begin() + 1, body.end());
  return msg;
}

void MsgSocket::close() noexcept {
  if (fd_.valid()) {
    ::shutdown(fd_.get(), SHUT_RDWR);
    fd_.reset();
  }
}

}  // namespace dsjoin::net
