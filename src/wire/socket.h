// Minimal RAII TCP socket layer (IPv4 loopback) for the wire data plane.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/result.h"

namespace droute::wire {

/// Owning file descriptor. Move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// A connected TCP stream.
class Stream {
 public:
  explicit Stream(Fd fd) : fd_(std::move(fd)) {}

  /// Writes the whole buffer; fails on EPIPE/reset.
  [[nodiscard]] util::Status send_all(std::span<const std::uint8_t> data);

  /// Reads exactly `out.size()` bytes; fails on EOF/reset.
  [[nodiscard]] util::Status recv_all(std::span<std::uint8_t> out);

  /// 64-bit little-endian framing helpers.
  [[nodiscard]] util::Status send_u64(std::uint64_t value);
  util::Result<std::uint64_t> recv_u64();

  bool valid() const { return fd_.valid(); }

 private:
  Fd fd_;
};

/// A listening socket bound to 127.0.0.1. Port 0 picks a free port.
class Listener {
 public:
  [[nodiscard]] static util::Result<Listener> bind(std::uint16_t port);

  /// Blocks until a client connects or the listener is shut down.
  [[nodiscard]] util::Result<Stream> accept();

  /// Unblocks pending/future accept() calls (they return errors). Safe to
  /// call from another thread while accept() blocks; the descriptor stays
  /// open until the Listener is destroyed (after joining the accept thread).
  void shutdown();

  std::uint16_t port() const { return port_; }

 private:
  Listener(Fd fd, std::uint16_t port) : fd_(std::move(fd)), port_(port) {}
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port`.
[[nodiscard]] util::Result<Stream> connect_local(std::uint16_t port);

}  // namespace droute::wire
