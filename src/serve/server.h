// msim_serve daemon core: newline-delimited JSON over a Unix stream
// socket, jobs dispatched onto the work-stealing JobScheduler, one
// process-wide CacheRegistry shared by every job.
//
// Protocol (one JSON object per line, either direction):
//
//   -> {"op":"ping"}
//   <- {"ok":true,"op":"ping"}
//
//   -> {"op":"submit","id":"j1","deck":"...netlist text...",
//       "probe":"out","budget_ms":0,"ensemble":1,"pss":false,
//       "mc":0,"mc_seed":1,"tran_stats":false,"telemetry":true,
//       "result_cache":true}
//   <- {"ok":true,"op":"submit","id":"j1","status":"queued"}
//      (an omitted id gets a daemon-generated one; an id that is
//       already in flight is rejected with ok:false -- two live jobs
//       under one id would make cancel and result lines ambiguous)
//   ...job runs on a scheduler worker...
//   <- {"op":"result","id":"j1","exit_code":0,"warm":true,
//       "cached":false,"out":"...","err":"..."}
//
//   -> {"op":"cancel","id":"j1"}         cooperative (RunBudget cancel)
//   <- {"ok":true,"op":"cancel","id":"j1","found":true}
//
//   -> {"op":"stats"}
//   <- {"ok":true,"op":"stats","registry":{...},"scheduler":{...},
//       "jobs":{"submitted":N,"completed":N,"warm":N,"cached":N,
//               "cancelled":N},"connections":N}
//
//   -> {"op":"shutdown"}
//   <- {"ok":true,"op":"shutdown"}       then the daemon exits
//
// Only the deck travels over the wire (not a path): the daemon never
// reads client-relative files, and a job's "out"/"err" bytes are
// exactly what `msim_cli <deck>` with the same options would print
// (shared serve::run_deck underneath).
//
// Threading: one I/O thread polls the listener, a self-pipe written by
// shutdown() and every connection; it reads and splits request lines,
// answers ping/stats/cancel/shutdown inline and queues submit on the
// JobScheduler, whose workers run the jobs.  A per-connection write
// mutex keeps the ack and in-flight results line-atomic.  A connection
// closes as soon as its peer hangs up (results of its running jobs are
// dropped) or stops reading its replies for a few seconds.  When
// accept() fails (descriptor limit) the listener sits out until a
// connection closes or a short retry timer fires.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/budget.h"
#include "serve/deck.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/scheduler.h"

namespace msim::serve {

struct ServerOptions {
  std::string socket_path;
  std::size_t workers = 0;               // 0 = hardware concurrency
  std::size_t cache_bytes = 64u << 20;   // structural registry cap
  std::size_t result_bytes = 16u << 20;  // whole-result memo cap
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();

  // Binds, listens and starts the I/O thread; false (with *err set) on
  // failure.
  bool start(std::string* err);

  // Blocks until a shutdown request (or shutdown() from another
  // thread).  start() must have succeeded.
  void run();

  // Stops the I/O thread, drains the scheduler (in-flight results
  // still reach open connections), then closes every connection.
  void shutdown();

  CacheRegistry& registry() { return registry_; }
  std::size_t workers() const { return scheduler_.workers(); }

 private:
  struct Conn {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
    // Read state, touched only by the I/O thread.
    std::string line;       // the current line, up to its newline
    bool overlong = false;  // skipping the rest of an over-cap line
  };
  struct JobCtl {
    core::CancelToken token;
    core::RunBudget budget;
    std::atomic<bool> done{false};
  };

  void io_loop();
  // Accepts every pending connection; false when accept() failed for
  // want of a resource (the loop then pauses the listener).
  bool accept_ready();
  // One recv() on a readable conn, dispatching each completed line;
  // false when the peer hung up or the socket failed.
  bool read_ready(const std::shared_ptr<Conn>& conn);
  // Closes the fd under the write mutex, so an in-flight result write
  // fails cleanly instead of racing a reused fd number.
  static void close_connection(Conn& conn);
  void close_fds();  // the listener and the self-pipe
  void handle_line(const std::shared_ptr<Conn>& conn,
                   const std::string& line);
  void handle_submit(const std::shared_ptr<Conn>& conn, const Json& req);
  static void send_line(const std::shared_ptr<Conn>& conn,
                        const Json& msg);
  Json stats_json();  // I/O thread only: reads conns_

  ServerOptions opt_;
  CacheRegistry registry_;
  JobScheduler scheduler_;
  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;  // self-pipe: shutdown() -> io_loop
  std::vector<std::shared_ptr<Conn>> conns_;  // owned by the I/O thread
  std::mutex jobs_mu_;
  std::unordered_map<std::string, std::shared_ptr<JobCtl>> jobs_;
  std::uint64_t auto_id_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  // Daemon-level job counters (distinct from scheduler/registry stats).
  std::atomic<long> jobs_submitted_{0};
  std::atomic<long> jobs_completed_{0};
  std::atomic<long> jobs_warm_{0};
  std::atomic<long> jobs_cached_{0};
  std::atomic<long> jobs_cancelled_{0};
  std::thread io_thread_;  // last: it uses every member above
};

// Client helpers (msim_serve's --submit/--stats/--shutdown modes and
// the serve_smoke test).

// One request, one reply line.  Returns a null Json (and sets *err) on
// connect/IO/parse failure.
Json request(const std::string& socket_path, const Json& req,
             std::string* err);

// Submits a deck and blocks for its result message.  Returns the job's
// exit code (or -1 with *err set on transport failure); fills out/err
// with the job's captured streams and, when non-null, *warm / *cached
// with the result flags.
int submit_and_wait(const std::string& socket_path, const Json& submit,
                    std::string& out, std::string& err_stream,
                    std::string* err, bool* warm = nullptr,
                    bool* cached = nullptr);

}  // namespace msim::serve
