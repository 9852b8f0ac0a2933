// Thin RAII + factory layer over BSD sockets, IPv4 only (the live loop is a
// loopback/LAN tool, not a general server framework). Every socket comes
// back non-blocking; callers drive them from net::EventLoop.
//
// Errors at socket creation are programming/configuration errors (bad
// address, port in use) and throw std::runtime_error; errors on established
// sockets are runtime conditions the owning connection handles via errno.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace stale::net {

// "host:port" with a numeric port; host may be a dotted quad or "localhost".
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;

  std::string to_string() const;
};

// Throws std::invalid_argument on a malformed spec or out-of-range port.
Endpoint parse_endpoint(const std::string& text);

// "HOST:PORT[,HOST:PORT...]" -> endpoints, one per dispatcher shard. Throws
// like parse_endpoint on any bad entry, including the empty one a trailing
// comma or an empty list leaves.
std::vector<Endpoint> parse_endpoint_list(const std::string& text);

// Move-only owner of a file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Non-blocking listening TCP socket (SO_REUSEADDR). `port` 0 asks the kernel
// for an ephemeral port; the actually bound port is written to `bound_port`.
Fd tcp_listen(const std::string& host, std::uint16_t port,
              std::uint16_t* bound_port);

// Non-blocking TCP connect; an in-progress connect (EINPROGRESS) is success,
// the event loop reports writability when it completes. TCP_NODELAY is set:
// every message here is a small latency-sensitive line.
Fd tcp_connect(const Endpoint& endpoint);

// Accepts one pending connection from a listening socket; invalid Fd when
// the accept queue is empty. Accepted sockets are non-blocking + NODELAY.
Fd tcp_accept(int listen_fd);

// Non-blocking bound UDP socket for receiving; `port` 0 = ephemeral.
Fd udp_bind(const std::string& host, std::uint16_t port,
            std::uint16_t* bound_port);

// Non-blocking unbound UDP socket for sending.
Fd udp_socket();

// One datagram to `endpoint`; best-effort (drops on error, like the network
// would).
void udp_send(int fd, const Endpoint& endpoint, const std::string& payload);

}  // namespace stale::net
