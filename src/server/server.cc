#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "query/pattern_parser.h"
#include "util/concurrency.h"

namespace rigpm::server {

namespace {

/// Epoll wait slice: bounds how stale the stop flag and the idle-timeout
/// scan can get when no fd is active.
constexpr int kLoopTickMs = 100;
constexpr size_t kLatencyRingCapacity = 4096;
/// recv() staging buffer, and the per-event read bound that keeps one
/// firehose client from monopolizing the loop (leftover bytes re-trigger
/// the level-triggered EPOLLIN on the next re-arm).
constexpr size_t kReadChunk = 16384;
constexpr size_t kMaxReadPerEvent = 256 * 1024;
/// Shutdown drain bound: in-flight requests get this long to finish and
/// flush before remaining connections are cut.
constexpr double kDrainCapMs = 5000.0;
/// The loop's share of preparing a request stays in the microseconds:
/// request frames over kMaxLoopFrameBytes are decoded on a worker (a long
/// pattern's parse grows with its size).
constexpr size_t kMaxLoopFrameBytes = 1024;
/// Per-connection cap on requests with the workers at once (Pipelining in
/// the QueryServer class comment).
constexpr uint32_t kMaxPipeline = 64;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Percentile over an unsorted sample copy (nearest-rank).
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(samples.size()));
  rank = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Length prefix + payload as one contiguous buffer, ready for the
/// non-blocking write queue (the blocking WriteFrame of protocol.cc cannot
/// be used from the event loop).
std::vector<uint8_t> FrameBytes(const ByteSink& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::vector<uint8_t> framed(sizeof(len) + payload.size());
  std::memcpy(framed.data(), &len, sizeof(len));
  std::memcpy(framed.data() + sizeof(len), payload.data().data(),
              payload.size());
  return framed;
}

/// The result-cache key: the query request's body exactly as received,
/// then the server's tuple cap (ServerConfig::max_return_tuples). The body
/// holds the request's own cap, so within one server two requests share an
/// answer exactly when their bytes match, and a hit returns exactly the
/// answer computed for those bytes, its tuples in the request's own node
/// order. The key needs no decoded field, so a hit is found before the
/// body is decoded. The cache compares the whole key on every probe.
std::string CacheKey(std::span<const uint8_t> body, uint32_t server_cap) {
  std::string key(reinterpret_cast<const char*>(body.data()), body.size());
  key.append(reinterpret_cast<const char*>(&server_cap), sizeof(server_cap));
  return key;
}

}  // namespace

QueryServer::QueryServer(std::shared_ptr<EngineCatalog> catalog,
                         ServerConfig config)
    : config_(std::move(config)), catalog_(std::move(catalog)) {
  latency_ring_.resize(kLatencyRingCapacity, 0.0);
  accept_ring_.resize(kLatencyRingCapacity, 0.0);
}

QueryServer::~QueryServer() { Stop(); }

std::string QueryServer::endpoint() const {
  if (!config_.unix_path.empty()) return "unix:" + config_.unix_path;
  return config_.host + ":" + std::to_string(bound_port_);
}

bool QueryServer::Start(std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
      epoll_fd_ = -1;
    }
    if (wake_fd_ >= 0) {
      ::close(wake_fd_);
      wake_fd_ = -1;
    }
    return false;
  };

  if (!config_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail(std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      return fail("unix socket path too long: " + config_.unix_path);
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // Only remove a STALE socket (left by a dead server). If a live daemon
    // still answers on the path, fail loudly instead of silently unlinking
    // its endpoint out from under it; and never unlink a non-socket (a
    // mistyped --socket pointing at a regular file must not delete it).
    struct stat st{};
    if (::lstat(config_.unix_path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        return fail(config_.unix_path + " exists and is not a socket");
      }
      int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (probe >= 0) {
        bool alive = ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr)) == 0;
        ::close(probe);
        if (alive) {
          return fail(config_.unix_path + " is already being served");
        }
      }
      ::unlink(config_.unix_path.c_str());
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return fail("bind " + config_.unix_path + ": " + std::strerror(errno));
    }
    bound_unix_ = true;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail(std::strerror(errno));
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      return fail("cannot parse host address " + config_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return fail("bind " + config_.host + ":" + std::to_string(config_.port) +
                  ": " + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, SOMAXCONN) < 0) {
    return fail(std::string("listen: ") + std::strerror(errno));
  }
  if (!SetNonBlocking(listen_fd_)) {
    return fail(std::string("fcntl O_NONBLOCK: ") + std::strerror(errno));
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return fail(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return fail(std::string("eventfd: ") + std::strerror(errno));
  }
  // The listen socket and the wake eventfd stay level-triggered and
  // always armed; only connection fds use EPOLLONESHOT re-arm.
  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &lev) < 0) {
    return fail(std::string("epoll_ctl listen: ") + std::strerror(errno));
  }
  epoll_event wev{};
  wev.events = EPOLLIN;
  wev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wev) < 0) {
    return fail(std::string("epoll_ctl eventfd: ") + std::strerror(errno));
  }

  stop_.store(false);
  running_.store(true);
  start_time_ = std::chrono::steady_clock::now();

  uint32_t workers = ResolveWorkerCount(config_.num_workers,
                                        std::numeric_limits<size_t>::max());
  workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back(&QueryServer::WorkerLoop, this);
  }
  loop_thread_ = std::thread(&QueryServer::EventLoop, this);
  if (config_.maintenance_interval_ms > 0) {
    catalog_->SetMaintenancePolicy(MaintenancePolicy{
        config_.auto_compact_ratio, config_.maintenance_interval_ms});
    maintenance_thread_ = std::thread(&QueryServer::MaintenanceLoop, this);
  }
  return true;
}

void QueryServer::MaintenanceLoop() {
  const auto interval =
      std::chrono::milliseconds(config_.maintenance_interval_ms);
  std::unique_lock<std::mutex> lock(maint_mu_);
  while (!stop_.load()) {
    // Interruptible sleep FIRST: a tick at t=0 would race the daemon's
    // own startup appends for nothing.
    if (maint_cv_.wait_for(lock, interval, [&] { return stop_.load(); })) {
      return;
    }
    lock.unlock();
    catalog_->RunMaintenance();
    lock.lock();
  }
}

void QueryServer::RequestStop() {
  {
    // Set under the mutexes the worker and maintenance waits test it with:
    // a store between a waiter's predicate check and its block would lose
    // the wakeup and leave Stop() joining a thread that never wakes.
    std::scoped_lock lock(queue_mu_, maint_mu_);
    stop_.store(true);
  }
  queue_cv_.notify_all();
  maint_cv_.notify_all();
  WakeLoop();
}

void QueryServer::WakeLoop() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
}

void QueryServer::Wait() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Stop();
}

void QueryServer::Stop() {
  RequestStop();
  if (maintenance_thread_.joinable()) maintenance_thread_.join();
  if (loop_thread_.joinable()) loop_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (bound_unix_) {
    ::unlink(config_.unix_path.c_str());
    bound_unix_ = false;
  }
  running_.store(false);
}

// ------------------------------------------------------------ event loop

void QueryServer::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool draining = false;
  std::chrono::steady_clock::time_point drain_start;

  while (true) {
    if (stop_.load() && !draining) {
      // Stop accepting; keep looping until dispatched requests have
      // finished and their responses are flushed (the shutdown ACK must
      // reach its client), then cut the remaining connections.
      draining = true;
      drain_start = std::chrono::steady_clock::now();
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      queue_cv_.notify_all();
    }
    if (draining && (Drained() || MsSince(drain_start) > kDrainCapMs)) break;

    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, kLoopTickMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Accepts are deferred to the end of the batch: closing a connection
    // mid-batch releases its fd number, and accepting inside the batch
    // could re-use it while a stale event for the old connection is still
    // queued in `events`.
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready = true;
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drainv = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drainv, sizeof(drainv));
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleReadable(conn);
      }
      SettleConnection(conn);
    }
    if (accept_ready && !draining) AcceptNewConnections();

    // Worker completions: flush the fresh responses and re-arm (a finished
    // request may also unblock frames held back by the pipeline cap →
    // PumpDispatch inside SettleConnection).
    std::vector<std::shared_ptr<Connection>> done;
    {
      std::lock_guard<std::mutex> lock(compl_mu_);
      done.swap(completions_);
    }
    for (const std::shared_ptr<Connection>& conn : done) {
      SettleConnection(conn);
    }

    if (config_.idle_timeout_ms > 0 && !draining) CloseIdleConnections();
  }

  // Teardown: everything still open is cut (queued-but-unserved frames and
  // unflushed bytes included — the drain window above is their grace
  // period).
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) remaining.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : remaining) {
    CloseConnection(conn);
  }
}

bool QueryServer::Drained() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!dispatch_q_.empty()) return false;
  }
  if (inflight_total_.load() != 0) return false;
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->wq.empty()) return false;
  }
  return true;
}

void QueryServer::AcceptNewConnections() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or a transient accept error
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++connections_accepted_;
    }
    if (config_.max_connections > 0 &&
        conns_.size() >= config_.max_connections) {
      // Over the ceiling: shed the connection instead of letting an fd
      // flood starve the process of descriptors.
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->accept_time = std::chrono::steady_clock::now();
    conn->last_activity = conn->accept_time;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conn->in_epoll = true;
    conns_.emplace(fd, std::move(conn));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++active_connections_;
    }
  }
}

void QueryServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  if (conn->poisoned || conn->eof || conn->io_dead) return;
  uint8_t buf[kReadChunk];
  size_t total = 0;
  while (total < kMaxReadPerEvent) {
    ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn->rbuf.insert(conn->rbuf.end(), buf, buf + r);
      conn->last_activity = std::chrono::steady_clock::now();
      total += static_cast<size_t>(r);
      // A short read took all the socket held; another recv could only
      // return EAGAIN. A later byte or FIN fires the level-triggered
      // EPOLLIN again once SettleConnection re-arms the connection.
      if (static_cast<size_t>(r) < sizeof(buf)) break;
      continue;
    }
    if (r == 0) {
      // Clean FIN. Frames already received still get served and their
      // responses written (the write side may be open); the connection is
      // reaped once it quiesces (SettleConnection).
      conn->eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->io_dead = true;
    return;
  }
  ParseFrames(conn);
}

void QueryServer::ParseFrames(const std::shared_ptr<Connection>& conn) {
  while (!conn->poisoned) {
    size_t avail = conn->rbuf.size() - conn->rpos;
    uint32_t len = 0;
    if (avail < sizeof(len)) break;
    std::memcpy(&len, conn->rbuf.data() + conn->rpos, sizeof(len));
    if (len > config_.max_frame_bytes) {
      // The oversized payload will never be buffered, so the stream cannot
      // be resynchronized — answer once and drop the connection after the
      // error flushes. Frames already parsed but not dispatched are
      // dropped with it (the client never got an ack for them).
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++errors_;
      }
      ByteSink err = MakeErrorResponse(
          0, StatusCode::kBadRequest,
          "frame of " + std::to_string(len) + " bytes exceeds the limit of " +
              std::to_string(config_.max_frame_bytes));
      std::vector<uint8_t> framed = FrameBytes(err);
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->wq_bytes += framed.size();
        conn->wq.push_back(std::move(framed));
        conn->close_after_flush = true;
      }
      conn->ready.clear();
      conn->poisoned = true;
      break;
    }
    if (avail - sizeof(len) < len) break;  // frame still incomplete
    auto begin = conn->rbuf.begin() +
                 static_cast<ptrdiff_t>(conn->rpos + sizeof(len));
    conn->ready.emplace_back(begin, begin + static_cast<ptrdiff_t>(len));
    conn->rpos += sizeof(len) + len;
  }
  // Compact the consumed prefix (the leftover is at most one partial
  // frame's worth of bytes).
  if (conn->rpos > 0) {
    conn->rbuf.erase(conn->rbuf.begin(),
                     conn->rbuf.begin() + static_cast<ptrdiff_t>(conn->rpos));
    conn->rpos = 0;
  }
}

void QueryServer::PumpDispatch(const std::shared_ptr<Connection>& conn) {
  if (stop_.load()) return;  // draining: never-dispatched frames are dropped
  while (!conn->ready.empty()) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->inflight >= kMaxPipeline) break;
    }
    Request r;
    r.conn = conn;
    r.frame = std::move(conn->ready.front());
    conn->ready.pop_front();
    const auto t0 = std::chrono::steady_clock::now();
    const bool answered = Prepare(r, /*on_loop=*/true);
    r.busy_ms += MsSince(t0);
    if (answered) {
      AnswerOnLoop(std::move(r));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      ++conn->inflight;
    }
    inflight_total_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      dispatch_q_.push_back(std::move(r));
    }
    queue_cv_.notify_one();
  }
}

void QueryServer::AnswerOnLoop(Request r) {
  // The loop must not free an engine: a pin the catalog no longer
  // publishes may be the state's last, so a worker drops it.
  if (r.state != nullptr &&
      !catalog_->ReleaseIfPublished(r.header.graph_id, &r.state)) {
    Request retired;
    retired.state = std::move(r.state);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      dispatch_q_.push_back(std::move(retired));
    }
    queue_cv_.notify_one();
  }
  std::vector<uint8_t> framed = Book(r);
  std::lock_guard<std::mutex> lock(r.conn->mu);
  r.conn->wq_bytes += framed.size();
  r.conn->wq.push_back(std::move(framed));
}

bool QueryServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  // Gather cap per sendmsg (IOV_MAX is far higher; deeper queues loop).
  constexpr size_t kMaxFlushIov = 64;
  std::lock_guard<std::mutex> lock(conn->mu);
  uint64_t flushes = 0;
  uint64_t frames = 0;
  auto commit = [&] {
    if (flushes == 0) return;
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    flushes_ += flushes;
    frames_flushed_ += frames;
  };
  while (!conn->wq.empty()) {
    // Writev-style coalescing: every queued response frame (up to the
    // iovec cap) leaves in ONE gathering send — a pipeline of small
    // responses costs one syscall and one packet, not one per frame.
    iovec iov[kMaxFlushIov];
    size_t niov = 0;
    for (const std::vector<uint8_t>& frame : conn->wq) {
      if (niov == kMaxFlushIov) break;
      size_t off = niov == 0 ? conn->wq_front_off : 0;
      iov[niov].iov_base = const_cast<uint8_t*>(frame.data() + off);
      iov[niov].iov_len = frame.size() - off;
      ++niov;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    // sendmsg rather than plain writev: only msg-based sends take
    // MSG_NOSIGNAL, and a vanished peer must be an error return here, not
    // a process-wide SIGPIPE.
    ssize_t r = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (r > 0) {
      if (!conn->first_byte_recorded) {
        conn->first_byte_recorded = true;
        RecordAcceptLatency(MsSince(conn->accept_time));
      }
      conn->last_activity = std::chrono::steady_clock::now();
      conn->wq_bytes -= static_cast<size_t>(r);
      ++flushes;
      // Retire fully-sent frames, advance into a partially-sent one.
      size_t sent = static_cast<size_t>(r);
      while (sent > 0) {
        size_t left = conn->wq.front().size() - conn->wq_front_off;
        if (sent < left) {
          conn->wq_front_off += sent;
          break;
        }
        sent -= left;
        conn->wq.pop_front();
        conn->wq_front_off = 0;
        ++frames;
      }
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    commit();
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // socket buffer full; EPOLLOUT re-arms the flush
    }
    return false;  // peer vanished
  }
  commit();
  return !conn->close_after_flush;  // fully flushed; close if so marked
}

bool QueryServer::SettleConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return false;
  }
  if (conn->io_dead) {
    CloseConnection(conn);
    return false;
  }
  // Dispatch first: what the loop answers in place leaves in this flush.
  PumpDispatch(conn);
  if (!FlushWrites(conn)) {
    CloseConnection(conn);
    return false;
  }
  bool quiesced;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    quiesced = conn->eof && conn->ready.empty() && conn->inflight == 0 &&
               conn->wq.empty();
  }
  if (quiesced) {
    CloseConnection(conn);
    return false;
  }
  UpdateInterest(conn);
  return true;
}

void QueryServer::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  bool want_read;
  bool want_write;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    want_write = !conn->wq.empty();
    // Backpressure: a connection whose pipeline or write queue is full
    // simply stops being read until completions drain it — the client
    // blocks in its send() instead of ballooning server memory.
    bool backpressured =
        conn->ready.size() >= 2 * static_cast<size_t>(kMaxPipeline) ||
        conn->wq_bytes > 2 * static_cast<size_t>(config_.max_frame_bytes);
    want_read = !conn->poisoned && !conn->eof && !conn->close_after_flush &&
                !backpressured && !stop_.load();
  }
  epoll_event ev{};
  ev.events = EPOLLONESHOT | (want_read ? EPOLLIN : 0u) |
              (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void QueryServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    conn->wq.clear();
    conn->wq_bytes = 0;
  }
  if (conn->in_epoll) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    conn->in_epoll = false;
  }
  ::close(conn->fd);
  conns_.erase(conn->fd);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    --active_connections_;
  }
}

void QueryServer::CloseIdleConnections() {
  std::vector<std::shared_ptr<Connection>> idle;
  for (auto& [fd, conn] : conns_) {
    bool busy;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      busy = conn->inflight > 0 || !conn->wq.empty() || !conn->ready.empty();
    }
    if (!busy && MsSince(conn->last_activity) >
                     static_cast<double>(config_.idle_timeout_ms)) {
      idle.push_back(conn);
    }
  }
  for (const std::shared_ptr<Connection>& conn : idle) {
    CloseConnection(conn);
  }
}

// --------------------------------------------------------------- workers

void QueryServer::WorkerLoop() {
  while (true) {
    Request r;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return stop_.load() || !dispatch_q_.empty(); });
      if (dispatch_q_.empty()) {
        // stop_ is set and nothing is queued: every dispatched request has
        // an owner; this worker is done.
        return;
      }
      r = std::move(dispatch_q_.front());
      dispatch_q_.pop_front();
    }
    // A request without a connection only carries a pin the loop retired;
    // it is dropped here, off the loop.
    if (r.conn != nullptr) ProcessRequest(std::move(r));
  }
}

void QueryServer::ProcessRequest(Request r) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!Prepare(r, /*on_loop=*/false)) {
    if (r.type == MessageType::kQueryRequest) {
      Evaluate(r);
    } else {
      HandleAdmin(r);
    }
  }
  r.busy_ms += MsSince(t0);
  // Drop the pin before the response is queued, so an idle worker keeps no
  // superseded engine alive.
  r.state.reset();
  std::vector<uint8_t> framed = Book(r);
  FinishRequest(r.conn, std::move(framed), r.close_after);
}

std::vector<uint8_t> QueryServer::Book(Request& r) {
  // A frame the client would reject as oversize (and that a 4-byte length
  // prefix may not even represent): substitute a small error so the work
  // is not silently dropped on the client side.
  if (r.response.size() > config_.max_frame_bytes) {
    Reject(r, StatusCode::kInternalError,
           "response of " + std::to_string(r.response.size()) +
               " bytes exceeds the frame cap of " +
               std::to_string(config_.max_frame_bytes));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++requests_served_;
    if (r.failed) ++errors_;
    queries_served_ += r.queries;
    occurrences_emitted_ += r.occurrences;
    if (r.decoded && r.type == MessageType::kQueryRequest) {
      latency_ring_[latency_next_] = r.busy_ms;
      latency_next_ = (latency_next_ + 1) % latency_ring_.size();
      if (latency_next_ == 0) latency_wrapped_ = true;
    }
  }
  return FrameBytes(r.response);
}

void QueryServer::FinishRequest(const std::shared_ptr<Connection>& conn,
                                std::vector<uint8_t> framed_response,
                                bool close_after) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    --conn->inflight;
    if (close_after) conn->close_after_flush = true;
    if (!conn->closed) {
      conn->wq_bytes += framed_response.size();
      conn->wq.push_back(std::move(framed_response));
    }
  }
  inflight_total_.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(compl_mu_);
    completions_.push_back(conn);
  }
  WakeLoop();
}

// -------------------------------------------------------------- requests

void QueryServer::Reject(Request& r, StatusCode status,
                         const std::string& message) {
  r.response = MakeErrorResponse(r.header.request_id, status, message);
  r.failed = true;
}

void QueryServer::FailQuery(Request& r, StatusCode status,
                            const std::string& message) {
  QueryResponse resp;
  resp.status = status;
  resp.error = message;
  resp.Serialize(r.response);
  r.failed = true;
}

bool QueryServer::Prepare(Request& r, bool on_loop) {
  if (!r.decoded) {
    if (on_loop && r.frame.size() > kMaxLoopFrameBytes) return false;
    if (DecodeHeader(r)) return true;
    // The hit path needs only the header: the tenant's resident state (the
    // one a refresh published last, or a reopen after an eviction) and the
    // body's bytes. An entry exists only for a body that passed validation,
    // so a hit counts the pin and marks the tenant used.
    if (r.type == MessageType::kQueryRequest) {
      r.state = catalog_->PinResident(r.header.graph_id);
      if (r.state != nullptr && Probe(r)) {
        catalog_->CountHit(r.header.graph_id);
        return true;
      }
    }
  }
  if (r.type != MessageType::kQueryRequest) return false;

  // A miss, or a tenant that is not resident: the body is decoded,
  // validated and parsed before any tenant opens, so every rejection wins
  // over the tenant's state, and an invalid request counts no catalog hit
  // and leaves the tenant's LRU recency as it was.
  if (!r.validated) {
    if (DecodeQuery(r)) return true;
    if (r.state != nullptr) catalog_->CountHit(r.header.graph_id);
  }
  if (r.state == nullptr) {
    if (on_loop) return false;  // a worker opens or rejects the tenant
    std::string error;
    r.state = catalog_->Acquire(r.header.graph_id, &error);
    if (r.state == nullptr) {
      // An id the catalog has never heard of is the client's mistake; a
      // registered source that fails to open is the server's.
      std::string resolved = r.header.graph_id;
      if (resolved.empty()) resolved = catalog_->default_id();
      Reject(r,
             catalog_->Has(resolved) ? StatusCode::kInternalError
                                     : StatusCode::kBadRequest,
             error);
      return true;
    }
    if (Probe(r)) return true;
  }
  return false;
}

bool QueryServer::Probe(Request& r) {
  // Generation-scoped: the cache lives and dies with the pinned state, so
  // a hit is always consistent with the engine this request would have
  // evaluated on.
  if (r.state->cache == nullptr) return false;
  r.cache_key = CacheKey(std::span(r.frame).subspan(r.body_offset),
                         config_.max_return_tuples);
  auto hit = r.state->cache->Lookup(r.cache_key);
  if (hit == nullptr) return false;
  Serve(r, *hit);
  return true;
}

bool QueryServer::DecodeHeader(Request& r) {
  r.decoded = true;
  ByteSource src(r.frame.data(), r.frame.size());
  r.header = ReadRequestHeader(src);
  r.type = ReadMessageType(src);
  r.body_offset = r.frame.size() - src.remaining();
  r.response.WriteU64(r.header.request_id);
  if (!src.ok()) {
    Reject(r, StatusCode::kBadRequest,
           "frame too short for a request header and type");
    return true;
  }
  switch (r.type) {
    case MessageType::kQueryRequest:
      return false;
    case MessageType::kPingRequest:
      r.response.WriteU32(static_cast<uint32_t>(MessageType::kPingResponse));
      return true;
    case MessageType::kStatsRequest:
    case MessageType::kRefreshRequest:
    case MessageType::kShutdownRequest:
      return false;
    default:
      Reject(r, StatusCode::kBadRequest,
             "unknown request type " +
                 std::to_string(static_cast<uint32_t>(r.type)));
      return true;
  }
}

bool QueryServer::DecodeQuery(Request& r) {
  r.validated = true;
  ByteSource src(r.frame.data() + r.body_offset,
                 r.frame.size() - r.body_offset);
  r.query = QueryRequest::Deserialize(src);
  if (!src.ok() || src.remaining() != 0) {
    Reject(r, StatusCode::kBadRequest,
           src.ok() ? "trailing bytes in query request" : src.error());
    return true;
  }

  const QueryRequest& req = r.query;
  if (req.patterns.empty()) {
    FailQuery(r, StatusCode::kBadRequest, "request has no patterns");
    return true;
  }
  std::string parse_error;
  for (const std::string& text : req.patterns) {
    auto q = ParsePattern(text, &parse_error);
    if (!q.has_value()) {
      FailQuery(r, StatusCode::kParseError,
                "cannot parse pattern '" + text + "': " + parse_error);
      return true;
    }
    if (!q->IsConnected()) {
      FailQuery(r, StatusCode::kParseError,
                "pattern '" + text + "' must be connected");
      return true;
    }
    r.parsed.push_back(std::move(*q));
  }
  r.tuple_cap = std::min(req.max_return_tuples, config_.max_return_tuples);
  return false;
}

void QueryServer::Evaluate(Request& r) {
  const GmEngine& engine = *r.state->engine;
  GmOptions opts;
  opts.limit = r.query.limit;
  auto evaluate = [&]() -> std::shared_ptr<const QueryResponse> {
    auto resp = std::make_shared<QueryResponse>();
    // Tuples are echoed for single-pattern requests only.
    OccurrenceSink sink = nullptr;
    if (r.parsed.size() == 1) {
      resp->tuple_arity = r.parsed[0].NumNodes();
      if (r.tuple_cap > 0) {
        sink = [&](const Occurrence& t) {
          if (resp->tuples.size() / resp->tuple_arity <
              static_cast<size_t>(r.tuple_cap)) {
            resp->tuples.insert(resp->tuples.end(), t.begin(), t.end());
          }
          return true;
        };
      }
    }
    // Every pattern runs in request order on this worker.
    for (const PatternQuery& q : r.parsed) {
      GmResult g = engine.Evaluate(q, opts, sink);
      QueryResultWire w;
      w.num_occurrences = g.num_occurrences;
      w.hit_limit = g.hit_limit;
      w.phase_timings.reserve(g.phase_timings.size());
      for (const PhaseTiming& pt : g.phase_timings) {
        w.phase_timings.push_back(PhaseTimingWire{pt.name, pt.ms});
      }
      resp->results.push_back(std::move(w));
    }
    return resp;
  };

  // Singleflight: N concurrent identical cold queries (a full pipeline of
  // the same hot pattern) evaluate once and share the result.
  const std::shared_ptr<ResultCache>& cache = r.state->cache;
  std::shared_ptr<const QueryResponse> resp =
      cache != nullptr ? cache->GetOrCompute(r.cache_key, evaluate)
                       : evaluate();
  if (resp == nullptr) {
    // The flight this request joined failed; nothing was cached.
    FailQuery(r, StatusCode::kInternalError, "evaluation failed");
    return;
  }
  Serve(r, *resp);
}

void QueryServer::Serve(Request& r, const QueryResponse& resp) {
  // One result per pattern: a hit needs no decoded request to count its
  // queries.
  r.queries = resp.results.size();
  r.occurrences = resp.TotalOccurrences();
  catalog_->CountQuery(r.header.graph_id, r.queries);
  resp.Serialize(r.response);
}

void QueryServer::HandleAdmin(Request& r) {
  switch (r.type) {
    case MessageType::kStatsRequest:
      Snapshot().Serialize(r.response);
      break;
    case MessageType::kRefreshRequest:
      HandleRefresh(r.header.graph_id, r.response);
      break;
    case MessageType::kShutdownRequest:
      if (config_.allow_remote_shutdown) {
        r.response.WriteU32(
            static_cast<uint32_t>(MessageType::kShutdownResponse));
        r.close_after = true;
        RequestStop();
      } else {
        Reject(r, StatusCode::kBadRequest, "remote shutdown is disabled");
      }
      break;
    default:
      break;  // DecodeHeader answers every other type
  }
}

void QueryServer::HandleRefresh(const std::string& graph_id, ByteSink& out) {
  // The replay/validate/swap pipeline (and its per-tenant serialization)
  // lives in the catalog; this wrapper only translates the result onto the
  // wire and into the serving counters.
  auto t0 = std::chrono::steady_clock::now();
  CatalogRefreshResult result = catalog_->Refresh(graph_id);
  RefreshResponse resp;
  resp.records_applied = result.records_applied;
  resp.edges_in_records = result.edges_in_records;
  resp.last_seqno = result.last_seqno;
  resp.num_nodes = result.num_nodes;
  resp.num_edges = result.num_edges;
  resp.log_truncated = result.log_truncated;
  if (!result.ok) {
    resp.status = result.bad_request ? StatusCode::kBadRequest
                                     : StatusCode::kInternalError;
    resp.error = result.error;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++errors_;
  } else if (result.records_applied > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++refreshes_;
  }
  resp.refresh_ms = MsSince(t0);
  resp.Serialize(out);
}

void QueryServer::RecordAcceptLatency(double ms) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  accept_ring_[accept_next_] = ms;
  accept_next_ = (accept_next_ + 1) % accept_ring_.size();
  if (accept_next_ == 0) accept_wrapped_ = true;
}

StatsResponse QueryServer::Snapshot() const {
  StatsResponse stats;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.dispatch_depth = dispatch_q_.size();
  }
  // One row per tenant, plus cache totals summed over the rows (the
  // catalog walk takes its own locks, so it stays outside stats_mu_).
  CatalogStats cstats = catalog_->Stats();
  stats.catalog_hits = cstats.hits;
  stats.catalog_misses = cstats.misses;
  stats.catalog_evictions = cstats.evictions;
  stats.default_id = catalog_->default_id();
  std::vector<TenantInfo> tenants = catalog_->List();
  stats.tenants.reserve(tenants.size());
  for (const TenantInfo& t : tenants) {
    stats.tenants.push_back(GraphInfoWire{
        t.id, t.resident, t.refreshable, t.applied_seqno, t.queries,
        t.cache.hits, t.cache.misses, t.cache.inserts, t.cache.evictions,
        t.cache.singleflight_waits, t.cache.bytes_used, t.cache.entries});
    stats.cache_hits += t.cache.hits;
    stats.cache_misses += t.cache.misses;
    stats.cache_inserts += t.cache.inserts;
    stats.cache_evictions += t.cache.evictions;
    stats.cache_singleflight_waits += t.cache.singleflight_waits;
    stats.cache_bytes_used += t.cache.bytes_used;
    stats.cache_entries += t.cache.entries;
  }
  MaintenanceStats maint = catalog_->maintenance_stats();
  stats.auto_refreshes = maint.auto_refreshes;
  stats.auto_compactions = maint.auto_compactions;
  stats.maintenance_bytes_reclaimed = maint.bytes_reclaimed;
  stats.deletes_applied = maint.deletes_applied;
  stats.maintenance_failures = maint.failures;

  std::lock_guard<std::mutex> lock(stats_mu_);
  stats.uptime_ms = static_cast<uint64_t>(MsSince(start_time_));
  stats.connections_accepted = connections_accepted_;
  stats.active_connections = active_connections_;
  stats.requests_served = requests_served_;
  stats.queries_served = queries_served_;
  stats.errors = errors_;
  stats.occurrences_emitted = occurrences_emitted_;
  stats.refreshes = refreshes_;
  stats.flushes = flushes_;
  stats.frames_flushed = frames_flushed_;
  std::vector<double> samples(
      latency_ring_.begin(),
      latency_ring_.begin() +
          (latency_wrapped_ ? latency_ring_.size() : latency_next_));
  stats.latency_p50_ms = Percentile(samples, 0.50);
  stats.latency_p99_ms = Percentile(std::move(samples), 0.99);
  std::vector<double> accepts(
      accept_ring_.begin(),
      accept_ring_.begin() +
          (accept_wrapped_ ? accept_ring_.size() : accept_next_));
  stats.accept_p50_ms = Percentile(accepts, 0.50);
  stats.accept_p99_ms = Percentile(std::move(accepts), 0.99);
  return stats;
}

}  // namespace rigpm::server
