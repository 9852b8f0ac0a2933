#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "sim/spec.h"

namespace stale::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("not an IPv4 address: '" + host + "'");
  }
  return addr;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    fail("getsockname");
  }
  return ntohs(addr.sin_port);
}

}  // namespace

std::string Endpoint::to_string() const {
  return host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    throw std::invalid_argument("endpoint must be host:port, got '" + text +
                                "'");
  }
  Endpoint endpoint;
  endpoint.host = text.substr(0, colon);
  endpoint.port = sim::parse_integer<std::uint16_t>(
      std::string_view(text).substr(colon + 1), "endpoint '" + text + "'",
      "port");
  return endpoint;
}

std::vector<Endpoint> parse_endpoint_list(const std::string& text) {
  std::vector<Endpoint> endpoints;
  for (const std::string& one : sim::split_fields(text, ',')) {
    endpoints.push_back(parse_endpoint(one));
  }
  return endpoints;
}

void Fd::reset(int fd) {
  if (fd_ >= 0) close(fd_);
  fd_ = fd;
}

Fd tcp_listen(const std::string& host, std::uint16_t port,
              std::uint16_t* bound_port) {
  Fd fd(socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail("socket(TCP)");
  const int one = 1;
  setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = make_addr(host, port);
  if (bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    fail("bind(" + host + ":" + std::to_string(port) + ")");
  }
  if (listen(fd.get(), 128) < 0) fail("listen");
  set_nonblocking(fd.get());
  if (bound_port != nullptr) *bound_port = local_port(fd.get());
  return fd;
}

Fd tcp_connect(const Endpoint& endpoint) {
  Fd fd(socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail("socket(TCP)");
  set_nonblocking(fd.get());
  set_nodelay(fd.get());
  const sockaddr_in addr = make_addr(endpoint.host, endpoint.port);
  if (connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
              sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    fail("connect(" + endpoint.to_string() + ")");
  }
  return fd;
}

Fd tcp_accept(int listen_fd) {
  const int fd = accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return Fd();
  set_nonblocking(fd);
  set_nodelay(fd);
  return Fd(fd);
}

Fd udp_bind(const std::string& host, std::uint16_t port,
            std::uint16_t* bound_port) {
  Fd fd(socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) fail("socket(UDP)");
  const sockaddr_in addr = make_addr(host, port);
  if (bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    fail("bind(udp " + host + ":" + std::to_string(port) + ")");
  }
  set_nonblocking(fd.get());
  if (bound_port != nullptr) *bound_port = local_port(fd.get());
  return fd;
}

Fd udp_socket() {
  Fd fd(socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) fail("socket(UDP)");
  set_nonblocking(fd.get());
  return fd;
}

void udp_send(int fd, const Endpoint& endpoint, const std::string& payload) {
  const sockaddr_in addr = make_addr(endpoint.host, endpoint.port);
  sendto(fd, payload.data(), payload.size(), 0,
         reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
}

}  // namespace stale::net
