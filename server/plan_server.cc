#include "server/plan_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "plangen/plan_explain.h"
#include "plangen/plan_serde.h"

namespace eadp {

PlanServer::PlanServer(OptimizerService* service,
                       const PlanServerOptions& options)
    : service_(service), options_(options) {}

PlanServer::~PlanServer() { Shutdown(); }

bool PlanServer::Listen(std::string* error) {
  if (options_.adopted_listen_fd >= 0) {
    listen_fd_ = options_.adopted_listen_fd;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error) *error = "socket: " + std::string(strerror(errno));
      return false;
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      if (error) *error = "bad host: " + options_.host;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      if (error) *error = "bind/listen: " + std::string(strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  return true;
}

void PlanServer::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener is gone; nothing left to accept
    }
    // Request/response framing with multi-frame replies: Nagle + delayed
    // ACK would add ~40ms to every exchange.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stop_.load(std::memory_order_acquire)) {
        ::close(fd);
        break;
      }
      for (auto it = handlers_.begin(); it != handlers_.end();) {
        if (it->done) {
          finished.push_back(std::move(it->thread));
          it = handlers_.erase(it);
        } else {
          ++it;
        }
      }
      conn_fds_.insert(fd);
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      auto handler = handlers_.emplace(handlers_.end());
      handler->thread = std::thread([this, fd, handler] {
        HandleConnection(fd);
        std::lock_guard<std::mutex> done_lock(conn_mu_);
        conn_fds_.erase(fd);
        ::close(fd);
        handler->done = true;
      });
    }
    // Reaped handlers marked themselves done on their way out, so these
    // joins wait for thread exit only.
    for (std::thread& t : finished) t.join();
  }
}

size_t PlanServer::handler_threads() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return handlers_.size();
}

bool PlanServer::Start(std::string* error) {
  if (!Listen(error)) return false;
  serve_thread_ = std::thread([this] { Serve(); });
  return true;
}

void PlanServer::RequestStop() {
  stop_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void PlanServer::Shutdown() {
  RequestStop();
  if (serve_thread_.joinable()) serve_thread_.join();
  std::list<Handler> handlers;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    handlers.swap(handlers_);  // keeps the running threads' nodes valid
  }
  for (Handler& h : handlers) {
    if (h.thread.joinable()) h.thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

namespace {

bool WriteError(int fd, ErrorCode code, std::string_view message) {
  return WriteFrame(fd, Opcode::kError, EncodeError(code, message));
}

}  // namespace

int PlanServer::HandleOptimize(int fd, const std::string& session,
                               const std::string& spec_line) {
  if (!service_->TryAdmit()) {
    return WriteError(fd, ErrorCode::kBackpressure,
                      "planning in-flight bound reached, retry")
               ? 0
               : -1;
  }
  OptimizeResult result;
  ServiceStatus status;
  // The handler thread blocks on the pool future — admission already
  // bounded how many handlers can be here, so the pool queue is bounded
  // by max_inflight.
  auto future = service_->pool()->Submit(
      [&] { return service_->Optimize(session, spec_line, &result); });
  status = future.get();
  service_->Release();
  if (!status.ok()) {
    return WriteError(fd, status.code, status.message) ? 0 : -1;
  }
  if (!WriteFrame(fd, Opcode::kPlanBlob, EncodePlan(result))) return -1;
  return WriteFrame(fd, Opcode::kStatsJson,
                    OptimizeStatsToJson(result.stats))
             ? 1
             : -1;
}

void PlanServer::HandleConnection(int fd) {
  for (;;) {
    Frame frame;
    DecodeStatus decode = DecodeStatus::kOk;
    ReadStatus rs = ReadFrame(fd, options_.max_frame_bytes, &frame, &decode);
    if (rs == ReadStatus::kEof || rs == ReadStatus::kTorn) break;
    if (rs == ReadStatus::kOversized) {
      // The next frame's offset derives from the hostile length — the
      // stream cannot be resynchronized, so this connection is done.
      WriteError(fd, ErrorCode::kOversized, "frame exceeds size bound");
      break;
    }
    if (decode == DecodeStatus::kTooShort) {
      if (!WriteError(fd, ErrorCode::kMalformedFrame,
                      "frame shorter than header")) {
        break;
      }
      continue;
    }
    if (decode == DecodeStatus::kBadCrc) {
      if (!WriteError(fd, ErrorCode::kBadCrc, "payload checksum mismatch")) {
        break;
      }
      continue;
    }
    if (!IsRequestOpcode(frame.opcode)) {
      if (!WriteError(fd, ErrorCode::kBadOpcode,
                      "unknown opcode " + std::to_string(frame.opcode))) {
        break;
      }
      continue;
    }

    bool alive = true;
    switch (static_cast<Opcode>(frame.opcode)) {
      case Opcode::kOpenSession: {
        OpenSessionRequest req;
        if (!DecodeOpenSession(frame.payload, &req)) {
          alive = WriteError(fd, ErrorCode::kBadRequest,
                             "undecodable OpenSession payload");
          break;
        }
        ServiceStatus st = service_->OpenSession(req.session, req.knobs);
        alive = st.ok() ? WriteFrame(fd, Opcode::kOk, {})
                        : WriteError(fd, st.code, st.message);
        break;
      }
      case Opcode::kSetStats: {
        SetStatsRequest req;
        if (!DecodeSetStats(frame.payload, &req)) {
          alive = WriteError(fd, ErrorCode::kBadRequest,
                             "undecodable SetStats payload");
          break;
        }
        ServiceStatus st = service_->SetStats(req);
        alive = st.ok() ? WriteFrame(fd, Opcode::kOk, {})
                        : WriteError(fd, st.code, st.message);
        break;
      }
      case Opcode::kOptimize: {
        OptimizeRequest req;
        if (!DecodeOptimize(frame.payload, &req)) {
          alive = WriteError(fd, ErrorCode::kBadRequest,
                             "undecodable Optimize payload");
          break;
        }
        alive = HandleOptimize(fd, req.session, req.spec_line) >= 0;
        break;
      }
      case Opcode::kOptimizeBatch: {
        OptimizeBatchRequest req;
        if (!DecodeOptimizeBatch(frame.payload, &req)) {
          alive = WriteError(fd, ErrorCode::kBadRequest,
                             "undecodable OptimizeBatch payload");
          break;
        }
        uint64_t streamed = 0;
        for (const std::string& line : req.spec_lines) {
          int one = HandleOptimize(fd, req.session, line);
          if (one < 0) {
            alive = false;
            break;
          }
          streamed += static_cast<uint64_t>(one);
        }
        if (alive) {
          std::string payload;
          PutVarint64(&payload, streamed);
          alive = WriteFrame(fd, Opcode::kBatchDone, payload);
        }
        break;
      }
      case Opcode::kInvalidateCache: {
        service_->InvalidateCache();
        alive = WriteFrame(fd, Opcode::kOk, {});
        break;
      }
      case Opcode::kStats: {
        BinReader r(frame.payload);
        std::string name = r.ReadLengthPrefixed();
        if (!r.AtEnd()) {
          alive = WriteError(fd, ErrorCode::kBadRequest,
                             "undecodable Stats payload");
          break;
        }
        std::string json;
        ServiceStatus st = service_->StatsJson(name, &json);
        alive = st.ok() ? WriteFrame(fd, Opcode::kStatsJson, json)
                        : WriteError(fd, st.code, st.message);
        break;
      }
      case Opcode::kCloseSession: {
        BinReader r(frame.payload);
        std::string name = r.ReadLengthPrefixed();
        if (!r.AtEnd() || name.empty()) {
          alive = WriteError(fd, ErrorCode::kBadRequest,
                             "undecodable CloseSession payload");
          break;
        }
        ServiceStatus st = service_->CloseSession(name);
        alive = st.ok() ? WriteFrame(fd, Opcode::kOk, {})
                        : WriteError(fd, st.code, st.message);
        break;
      }
      case Opcode::kShutdown: {
        WriteFrame(fd, Opcode::kOk, {});
        RequestStop();  // wakes Serve(); never joins (we ARE a handler)
        alive = false;
        break;
      }
      default:
        alive = WriteError(fd, ErrorCode::kBadOpcode, "unhandled opcode");
        break;
    }
    if (!alive) break;
  }
}

}  // namespace eadp
