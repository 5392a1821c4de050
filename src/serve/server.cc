#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>

namespace msim::serve {
namespace {

// Longest request line the daemon buffers: without a cap, a client that
// never sends a newline grows the buffer until the process runs out of
// memory.  1 MiB is ~200x the largest deck in examples/ and tests/ (the
// ~5 KB mic-amp deck spice::write_netlist renders; .sp files are < 1 KB).
// A longer line gets an error reply; its bytes are dropped to the newline.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

// A reply send that makes no progress for this long drops the client
// (it stopped reading): bounds how long one client holds up the loop.
constexpr time_t kSendTimeoutSec = 2;

// While accept() fails for lack of a resource, the listener is re-polled
// after this long even if no connection closes in between.
constexpr int kAcceptRetryMs = 100;

Json error_reply(const std::string& error) {
  Json r = Json::object();
  r.set("ok", false);
  r.set("error", error);
  return r;
}

Json reply(const char* op, bool ok = true) {
  Json r = Json::object();
  r.set("ok", ok);
  r.set("op", op);
  return r;
}

// MSG_NOSIGNAL keeps a client that hung up from killing the daemon
// with SIGPIPE; the short-write loop finishes the line or gives up.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Fills zeroed addr with `path`; false (with *err set) if it won't fit.
bool unix_address(const std::string& path, sockaddr_un& addr,
                  std::string* err) {
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (err) *err = "socket path too long: " + path;
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  return true;
}

struct ClientConn {
  ClientConn() = default;
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;
  int fd = -1;
  // Bytes past the last line read: a reply can land in the same recv()
  // as an earlier line, so the buffer must outlive one match.
  std::string pending;
  ~ClientConn() {
    if (fd >= 0) ::close(fd);
  }
};

// Connects and sends one request line; false (with *err set) on failure.
bool send_request(ClientConn& c, const std::string& path, const Json& req,
                  std::string* err) {
  sockaddr_un addr{};
  if (!unix_address(path, addr, err)) return false;
  c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (c.fd < 0) {
    if (err) *err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (err) *err = "connect " + path + ": " + std::strerror(errno);
    return false;
  }
  if (write_all(c.fd, req.dump() + "\n")) return true;
  if (err) *err = "send failed";
  return false;
}

// Reads lines until `want` returns true for one (that line is returned)
// or the peer closes.
bool read_line_matching(ClientConn& c,
                        const std::function<bool(const Json&)>& want,
                        Json& out, std::string* err) {
  std::string& pending = c.pending;
  char buf[65536];
  for (;;) {
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (line.empty()) continue;
      std::string perr;
      Json msg = Json::parse(line, &perr);
      if (msg.is_null() && !perr.empty()) {
        if (err) *err = "bad reply: " + perr;
        return false;
      }
      if (want(msg)) {
        out = std::move(msg);
        return true;
      }
    }
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n == 0) {
      if (err) *err = "connection closed";
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (err) *err = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    pending.append(buf, static_cast<std::size_t>(n));
  }
}

// The job options of a submit request.  The counts are checked before
// any cast; a bad one leaves `error` set and the options unusable.
DeckOptions options_from_json(const Json& req, std::string& error) {
  DeckOptions o;
  const double ensemble = req["ensemble"].as_number(1);
  const double mc = req["mc"].as_number(0);
  const double mc_seed = req["mc_seed"].as_number(1);
  error = check_count("ensemble", ensemble, kMaxSamples);
  if (error.empty()) error = check_count("mc", mc, kMaxSamples);
  if (error.empty()) error = check_count("mc_seed", mc_seed, kMaxSeed);
  if (!error.empty()) return o;
  o.probe_arg = req["probe"].as_string();
  o.lint_only = req["lint_only"].as_bool(false);
  o.lint_json = req["lint"].as_bool(false);
  o.lint_strict = req["lint_strict"].as_bool(false);
  o.range_json = req["range"].as_bool(false);
  o.telemetry = req["telemetry"].as_bool(true);
  o.tran_stats = req["tran_stats"].as_bool(false);
  o.ensemble = static_cast<int>(ensemble);
  o.pss = req["pss"].as_bool(false);
  o.mc = static_cast<int>(mc);
  o.mc_seed = static_cast<std::uint64_t>(mc_seed);
  o.use_result_cache = req["result_cache"].as_bool(true);
  for (const auto& d : req["lint_disable"].items())
    o.lint_disable.push_back(d.as_string());
  return o;
}

}  // namespace

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)),
      registry_(opt_.cache_bytes, opt_.result_bytes),
      scheduler_(opt_.workers) {}

Server::~Server() { shutdown(); }

bool Server::start(std::string* err) {
  const auto fail = [&](const std::string& what) {
    if (err) *err = what;
    close_fds();
    return false;
  };
  sockaddr_un addr{};
  if (!unix_address(opt_.socket_path, addr, err)) return false;
  // Non-blocking, so one readiness drains the backlog and a connection
  // that vanished before accept() cannot block the I/O thread.
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0)
    return fail(std::string("socket: ") + std::strerror(errno));
  ::unlink(opt_.socket_path.c_str());  // stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    return fail("bind " + opt_.socket_path + ": " + std::strerror(errno));
  if (::listen(listen_fd_, 64) != 0)
    return fail(std::string("listen: ") + std::strerror(errno));
  int wake[2];
  if (::pipe2(wake, O_CLOEXEC) != 0)
    return fail(std::string("pipe: ") + std::strerror(errno));
  wake_rd_ = wake[0];
  wake_wr_ = wake[1];
  io_thread_ = std::thread([this] { io_loop(); });
  return true;
}

void Server::run() {
  std::unique_lock<std::mutex> lk(shutdown_mu_);
  shutdown_cv_.wait(lk, [&] { return shutdown_requested_.load(); });
  lk.unlock();
  shutdown();
}

void Server::shutdown() {
  if (stopping_.exchange(true)) {
    // Another thread is (or was) already tearing down; just make sure
    // run() wakes.
    shutdown_requested_.store(true);
    shutdown_cv_.notify_all();
    return;
  }
  shutdown_requested_.store(true);
  shutdown_cv_.notify_all();
  // Wake the I/O thread and join it; only then close the descriptors it
  // polls (closing first could let a number be reused under it).
  if (io_thread_.joinable()) {
    const char b = 0;
    while (::write(wake_wr_, &b, 1) < 0 && errno == EINTR) {
    }
    io_thread_.join();
  }
  close_fds();
  // Let in-flight jobs finish (their results still flush to open
  // connections), then close what's left.
  scheduler_.stop();
  for (auto& c : conns_) close_connection(*c);
  conns_.clear();
  ::unlink(opt_.socket_path.c_str());
}

void Server::io_loop() {
  std::vector<pollfd> fds;
  bool accept_paused = false;
  for (;;) {
    fds.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    // poll() skips a negative fd: a paused listener sits this round out.
    fds.push_back({accept_paused ? -1 : listen_fd_, POLLIN, 0});
    for (const auto& c : conns_) fds.push_back({c->fd, POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(),
                             accept_paused ? kAcceptRetryMs : -1);
    if (ready < 0) {  // EINTR or ENOMEM: retry, pausing unless EINTR
      if (errno != EINTR) ::poll(nullptr, 0, kAcceptRetryMs);
      continue;
    }
    if (fds[0].revents != 0) return;  // shutdown()
    if (ready == 0) accept_paused = false;  // retry timer fired
    bool closed = false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i + 2].revents == 0 || read_ready(conns_[i])) continue;
      close_connection(*conns_[i]);
      conns_[i] = nullptr;
      closed = true;
    }
    if (closed) {
      std::erase(conns_, nullptr);
      accept_paused = false;  // a descriptor came free
    }
    if (fds[1].revents != 0) accept_paused = !accept_ready();
  }
}

bool Server::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;  // backlog drained
    }
    const timeval timeout{kSendTimeoutSec, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
  }
}

bool Server::read_ready(const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  ssize_t n;
  do {
    n = ::recv(conn->fd, buf, sizeof buf, 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;  // peer closed, or the socket failed
  // Only the newly received bytes are scanned for the newline.
  std::string& line = conn->line;
  for (const char *p = buf, *end = buf + n; p < end;) {
    const char* eol = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    if (!conn->overlong) line.append(p, eol ? eol : end);
    if (!conn->overlong && line.size() > kMaxLineBytes) {
      conn->overlong = true;
      line = std::string();  // release the buffer too
      send_line(conn, error_reply("request line longer than " +
                                  std::to_string(kMaxLineBytes) + " bytes"));
    }
    if (!eol) break;
    if (!conn->overlong && !line.empty()) {
      try {
        handle_line(conn, line);
      } catch (const std::exception& e) {  // e.g. bad_alloc: keep serving
        send_line(conn, error_reply(std::string("internal error: ") +
                                    e.what()));
      }
    }
    line.clear();
    conn->overlong = false;
    p = eol + 1;
  }
  return true;
}

void Server::close_fds() {
  for (int* fd : {&listen_fd_, &wake_rd_, &wake_wr_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void Server::close_connection(Conn& conn) {
  std::lock_guard<std::mutex> g(conn.write_mu);
  if (conn.open.exchange(false)) ::close(conn.fd);
}

void Server::send_line(const std::shared_ptr<Conn>& conn, const Json& msg) {
  if (!conn->open.load()) return;
  std::string line = msg.dump();
  line.push_back('\n');
  std::lock_guard<std::mutex> g(conn->write_mu);
  if (!conn->open.load()) return;
  // A failed or timed-out send: the I/O thread sees the shutdown as a
  // hang-up and closes the connection.
  if (!write_all(conn->fd, line)) ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::handle_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line) {
  std::string perr;
  const Json req = Json::parse(line, &perr);
  if (!req.is_object()) {
    send_line(conn, error_reply(perr.empty() ? "request must be a JSON object"
                                             : perr));
    return;
  }
  const std::string op = req["op"].as_string();
  if (op == "ping") {
    send_line(conn, reply("ping"));
  } else if (op == "submit") {
    handle_submit(conn, req);
  } else if (op == "cancel") {
    const std::string id = req["id"].as_string();
    bool found = false;
    {
      std::lock_guard<std::mutex> g(jobs_mu_);
      auto it = jobs_.find(id);
      if (it != jobs_.end() && !it->second->done.load()) {
        it->second->token.request();
        found = true;
      }
    }
    Json r = reply("cancel");
    r.set("id", id);
    r.set("found", found);
    send_line(conn, r);
  } else if (op == "stats") {
    Json r = stats_json();
    r.set("ok", true);
    r.set("op", "stats");
    send_line(conn, r);
  } else if (op == "shutdown") {
    send_line(conn, reply("shutdown"));
    shutdown_requested_.store(true);
    shutdown_cv_.notify_all();
  } else {
    send_line(conn, error_reply("unknown op: " + op));
  }
}

void Server::handle_submit(const std::shared_ptr<Conn>& conn,
                           const Json& req) {
  if (!req["deck"].is_string() || req["deck"].as_string().empty()) {
    Json r = reply("submit", false);
    r.set("error", "submit needs a non-empty \"deck\" string");
    send_line(conn, r);
    return;
  }
  std::string id = req["id"].as_string();
  std::string bad_option;
  DeckOptions dopt = options_from_json(req, bad_option);
  if (!bad_option.empty()) {
    Json r = reply("submit", false);
    r.set("id", id);
    r.set("error", bad_option);
    send_line(conn, r);
    return;
  }
  auto ctl = std::make_shared<JobCtl>();
  ctl->budget.max_wall_ms = req["budget_ms"].as_number(0.0);
  ctl->budget.cancel = &ctl->token;
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> g(jobs_mu_);
    if (id.empty()) {
      do {  // skip generated ids a client happened to claim
        id = "job-" + std::to_string(++auto_id_);
      } while (jobs_.count(id));
    }
    duplicate = !jobs_.emplace(id, ctl).second;
  }
  if (duplicate) {
    // Two live jobs under one id would interleave indistinguishable
    // result lines, and the first completion's erase would strip the
    // second job's JobCtl out from under a later cancel.
    Json r = reply("submit", false);
    r.set("id", id);
    r.set("error", "job id '" + id + "' is already in flight");
    send_line(conn, r);
    return;
  }
  jobs_submitted_.fetch_add(1);

  Json ack = reply("submit");
  ack.set("id", id);
  ack.set("status", "queued");
  send_line(conn, ack);

  scheduler_.submit([this, conn, ctl, id, deck = req["deck"].as_string(),
                     dopt = std::move(dopt)]() mutable {
    dopt.budget = &ctl->budget;
    DeckResult res = run_deck(deck, dopt, &registry_);
    ctl->done.store(true);
    jobs_completed_.fetch_add(1);
    if (res.warm) jobs_warm_.fetch_add(1);
    if (res.result_cached) jobs_cached_.fetch_add(1);
    if (ctl->token.cancelled()) jobs_cancelled_.fetch_add(1);
    {
      std::lock_guard<std::mutex> g(jobs_mu_);
      jobs_.erase(id);
    }
    Json msg = Json::object();
    msg.set("op", "result");
    msg.set("id", id);
    msg.set("exit_code", res.exit_code);
    msg.set("warm", res.warm);
    msg.set("cached", res.result_cached);
    msg.set("out", std::move(res.out));
    msg.set("err", std::move(res.err));
    send_line(conn, msg);
  });
}

Json Server::stats_json() {
  Json jobs = Json::object();
  jobs.set("submitted", jobs_submitted_.load());
  jobs.set("completed", jobs_completed_.load());
  jobs.set("warm", jobs_warm_.load());
  jobs.set("cached", jobs_cached_.load());
  jobs.set("cancelled", jobs_cancelled_.load());
  Json r = Json::object();
  r.set("registry", registry_.stats().json());
  r.set("scheduler", scheduler_.stats().json());
  r.set("jobs", std::move(jobs));
  // Live connection gauge: stays bounded in a healthy daemon because
  // disconnected clients are closed immediately, not at shutdown.
  r.set("connections", static_cast<double>(conns_.size()));
  return r;
}

Json request(const std::string& socket_path, const Json& req,
             std::string* err) {
  ClientConn c;
  Json reply;
  if (!send_request(c, socket_path, req, err) ||
      !read_line_matching(c, [](const Json&) { return true; }, reply, err))
    return Json();
  return reply;
}

int submit_and_wait(const std::string& socket_path, const Json& submit,
                    std::string& out, std::string& err_stream,
                    std::string* err, bool* warm, bool* cached) {
  // First the ack (carries the daemon-assigned id), then the result.
  ClientConn c;
  Json ack;
  if (!send_request(c, socket_path, submit, err) ||
      !read_line_matching(
          c, [](const Json& m) { return m["op"].as_string() == "submit"; },
          ack, err))
    return -1;
  if (!ack["ok"].as_bool(false)) {
    if (err) *err = ack["error"].as_string();
    return -1;
  }
  const std::string id = ack["id"].as_string();
  Json result;
  if (!read_line_matching(
          c,
          [&](const Json& m) {
            return m["op"].as_string() == "result" &&
                   m["id"].as_string() == id;
          },
          result, err))
    return -1;
  out = result["out"].as_string();
  err_stream = result["err"].as_string();
  if (warm) *warm = result["warm"].as_bool(false);
  if (cached) *cached = result["cached"].as_bool(false);
  return static_cast<int>(result["exit_code"].as_number(1));
}

}  // namespace msim::serve
