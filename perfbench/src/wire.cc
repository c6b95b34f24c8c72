#include "wire.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "trace.h"

namespace perfbench {

using streamline::Result;
using streamline::Status;
namespace net = streamline::net;

Result<std::unique_ptr<Producer>> Producer::Connect(uint16_t port) {
  auto fd = net::TcpConnect(port);
  if (!fd.ok()) return fd.status();
  Status st = net::SetNonBlocking(fd->get());
  if (!st.ok()) return st;
  return std::unique_ptr<Producer>(new Producer(std::move(*fd)));
}

Status Producer::Send(const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd_.get(), data, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      data += w;
      n -= static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd_.get(), POLLOUT, 0};
      const int64_t t0 = NowNs();
      const int r = ::poll(&p, 1, 1000);
      blocked_ns_ += NowNs() - t0;
      if (r < 0 && errno != EINTR) {
        return Status::Internal(std::string("poll: ") + std::strerror(errno));
      }
      continue;
    }
    return Status::Internal(std::string("send: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Result<std::unique_ptr<Subscriber>> Subscriber::Connect(
    uint16_t port, const std::string& topic) {
  auto fd = net::TcpConnect(port);
  if (!fd.ok()) return fd.status();
  const std::string sub = net::EncodeSubscribe(topic);
  Status st = net::SendAll(fd->get(), sub.data(), sub.size());
  if (!st.ok()) return st;
  st = net::SetNonBlocking(fd->get());
  if (!st.ok()) return st;
  return std::unique_ptr<Subscriber>(new Subscriber(std::move(*fd)));
}

bool Subscriber::Poll(const OnRecord& on_record) {
  if (!error_.ok()) return false;
  for (;;) {
    const ssize_t r = ::recv(fd_.get(), buf_.data(), buf_.size(),
                             MSG_DONTWAIT);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (r <= 0) {
      error_ = Status::Internal(r == 0 ? "server closed the subscription"
                                       : std::string("recv: ") +
                                             std::strerror(errno));
      return false;
    }
    const int64_t now = NowNs();
    decoder_.Append(buf_.data(), static_cast<size_t>(r));
    for (;;) {
      std::string_view payload;
      auto next = decoder_.Next(&payload);
      if (!next.ok()) {
        error_ = next.status();
        return false;
      }
      if (!*next) break;
      const auto type = static_cast<uint8_t>(payload[0]);
      if (type == net::kMsgSnapshotBegin) {
        in_snapshot_ = true;
      } else if (type == net::kMsgSnapshotEnd) {
        in_snapshot_ = false;
      } else if (type == net::kMsgData) {
        scratch_.clear();
        Status st = net::DecodeDataBatch(payload, &scratch_);
        if (!st.ok()) {
          error_ = st;
          return false;
        }
        for (const auto& rec : scratch_) on_record(rec, now, in_snapshot_);
      }
    }
  }
}

}  // namespace perfbench
