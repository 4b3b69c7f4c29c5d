// Blocking NDJSON line client over one socket connection: the benchmark's
// load generator writes request lines and reads response lines from the
// same thread.
#pragma once

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <string>

#include "api/socket_server.hpp"
#include "util/error.hpp"

namespace perfbench {

class LineClient {
 public:
  /// Connects to `address`; a read that waits longer than `timeout_s`
  /// ends like EOF, so a lost response cannot hang the benchmark.
  LineClient(const rsp::api::ListenAddress& address, int timeout_s)
      : fd_(rsp::api::connect_socket(address)) {
    timeval tv{};
    tv.tv_sec = timeout_s;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends `line` plus the newline terminator; throws rsp::Error when the
  /// connection fails.
  void send(const std::string& line) {
    out_ = line;
    out_ += '\n';
    std::size_t sent = 0;
    while (sent < out_.size()) {
      const ssize_t n =
          ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw rsp::Error("benchmark client: send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Next response line without its terminator; false on EOF, error or
  /// timeout.
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string out_;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
