// perfbench/src/serve_probe.hpp — the serve-layer probe of the traced
// runs: an in-process pygb::serve::Server on a Unix socket, sent the
// trivial `path:2` BFS request, with every reply checked.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "probes.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace perfbench {

/// Serve-layer probe results.
struct ServeProbe {
  bool ok = true;
  double round_trip_ms = 0;
  double exec_ms = 0;
  double overhead_ms = 0;
  double concurrency_slowdown = 0;
};

inline void add_serve_metrics(Report& rep, const ServeProbe& sp) {
  rep.add("serve.round_trip_ms", sp.round_trip_ms, "ms");
  rep.add("serve.exec_ms", sp.exec_ms, "ms");
  rep.add("serve.overhead_ms", sp.overhead_ms, "ms");
  rep.add("serve.concurrency_slowdown", sp.concurrency_slowdown, "ratio");
}

constexpr std::uint64_t kServeWorkers = 2;

/// An in-process server on a Unix socket in the working directory,
/// stopped and joined by the destructor.
class ServerHandle {
 public:
  ServerHandle(const std::string& sock, std::uint64_t workers) {
    pygb::serve::ServerConfig cfg = pygb::serve::ServerConfig::from_env();
    cfg.target = "unix:" + sock;
    cfg.threads = workers;
    server_ = std::make_unique<pygb::serve::Server>(cfg);
    std::string error;
    if (!server_->start(error)) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n", error.c_str());
      server_.reset();
      return;
    }
    thread_ = std::thread([this] { server_->run(); });
  }
  ~ServerHandle() {
    if (server_ == nullptr) return;
    server_->request_shutdown();
    thread_.join();
  }
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;

  bool ok() const { return server_ != nullptr; }
  std::string endpoint() const { return server_->endpoint(); }

 private:
  std::unique_ptr<pygb::serve::Server> server_;
  std::thread thread_;
};

/// One round trip on a fresh connection; false on any transport failure.
inline bool round_trip(const std::string& target, const pygb::serve::Request& req,
                       pygb::serve::Response& resp, double& seconds) {
  std::string error;
  const auto t0 = now_ns();
  const int fd = pygb::serve::connect_client(target, error);
  if (fd < 0) return false;
  bool ok = pygb::serve::write_frame(fd, pygb::serve::render_request(req));
  std::string payload;
  if (ok) {
    ok = pygb::serve::read_frame(fd, payload, pygb::serve::max_request_bytes()) ==
         pygb::serve::FrameStatus::kOk;
  }
  ::close(fd);
  ok = ok && pygb::serve::parse_response(payload, resp, error);
  seconds = seconds_since(t0);
  return ok;
}

/// "key=value" lines of a reply.
inline std::map<std::string, std::string> reply_fields(const std::string& result) {
  std::map<std::string, std::string> f;
  std::size_t pos = 0;
  while (pos < result.size()) {
    std::size_t nl = result.find('\n', pos);
    if (nl == std::string::npos) nl = result.size();
    const std::string line = result.substr(pos, nl - pos);
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) f[line.substr(0, eq)] = line.substr(eq + 1);
    pos = nl + 1;
  }
  return f;
}

/// BFS from vertex 0 of the two-vertex path reaches both vertices at
/// depth 2: the reply must say exactly that.
inline bool trivial_reply_ok(const pygb::serve::Response& resp) {
  if (resp.code != pygb::serve::Code::kOk) return false;
  const auto f = reply_fields(resp.result);
  for (const char* key : {"nrows", "depth", "reached"}) {
    const auto it = f.find(key);
    if (it == f.end() || std::strtod(it->second.c_str(), nullptr) != 2.0) return false;
  }
  return true;
}

inline pygb::serve::Request trivial_request() {
  pygb::serve::Request req;
  req.algo = "bfs";
  req.graph = "path:2";
  return req;
}

/// `rounds` checked round trips of the trivial request, one after
/// another; latencies are appended to `latency_s`. False if any failed.
inline bool trivial_round_trips(const std::string& target, int rounds,
                                std::vector<double>& latency_s) {
  const pygb::serve::Request req = trivial_request();
  bool ok = true;
  for (int r = 0; r < rounds; ++r) {
    Span span("serve.request");
    pygb::serve::Response resp;
    double s = 0;
    if (!round_trip(target, req, resp, s) || !trivial_reply_ok(resp)) {
      if (ok) {
        std::fprintf(stderr, "perfbench: path:2 request failed: code %d, reply %s\n",
                     static_cast<int>(resp.code), resp.result.c_str());
      }
      ok = false;
    }
    latency_s.push_back(s);
  }
  return ok;
}

/// Round trips of the trivial request against a fresh server: median
/// latency at one and at two clients, and its in-process execution time.
inline ServeProbe serve_trivial_probe(unsigned pool_threads) {
  ServeProbe sp;
  ExecConfig exec(pool_threads, gbtl::detail::default_backend());
  ServerHandle server("probe.sock", kServeWorkers);
  if (!server.ok()) {
    sp.ok = false;
    return sp;
  }
  const std::string target = server.endpoint();
  Span span("serve.probe");
  std::vector<double> warm, one, two, two_other;
  bool ok = trivial_round_trips(target, 20, warm);
  ok = trivial_round_trips(target, 300, one) && ok;
  bool other_ok = true;
  std::thread t1([&] { other_ok = trivial_round_trips(target, 300, two_other); });
  ok = trivial_round_trips(target, 300, two) && ok;
  t1.join();
  two.insert(two.end(), two_other.begin(), two_other.end());
  pygb::serve::GraphCache cache(pygb::serve::SessionConfig::from_env());
  const pygb::serve::Request req = trivial_request();
  std::vector<double> exec_s;
  for (int i = 0; i < 300; ++i) {
    const auto t0 = now_ns();
    const auto resp = pygb::serve::execute(req, cache, 0);
    exec_s.push_back(seconds_since(t0));
    ok = ok && trivial_reply_ok(resp);
  }
  sp.ok = ok && other_ok;
  sp.round_trip_ms = 1e3 * median(one);
  sp.exec_ms = 1e3 * median(exec_s);
  sp.overhead_ms = sp.round_trip_ms - sp.exec_ms;
  sp.concurrency_slowdown = median(two) / median(one);
  return sp;
}

}  // namespace perfbench
