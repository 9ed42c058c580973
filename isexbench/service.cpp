#include "service.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace isexbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Reads from `fd` into `buffer` until it holds a newline or `timeout_ms`
// passes; false on EOF, error or timeout.
bool read_until_newline(int fd, std::string& buffer, int timeout_ms) {
  const Clock::time_point t0 = Clock::now();
  char chunk[4096];
  while (buffer.find('\n') == std::string::npos) {
    const int left = timeout_ms - static_cast<int>(ms_since(t0));
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, left);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  return true;
}

class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to isex_serve");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send_all(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to isex_serve failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// One response line (without the newline).
  std::string read_line() {
    if (!read_until_newline(fd_, buffer_, 170000))
      throw std::runtime_error("no response from isex_serve");
    const std::size_t nl = buffer_.find('\n');
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

  /// Everything until the peer closes.
  std::string read_to_end() {
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    return std::move(buffer_);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string string_field(const std::string& raw, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = raw.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  return raw.substr(begin, raw.find('"', begin) - begin);
}

Reply parse_reply(std::string raw) {
  Reply r;
  r.ok = raw.find("\"ok\":true") != std::string::npos;
  r.hit = raw.find("\"cache_hit\":true") != std::string::npos;
  r.digest = string_field(raw, "result_digest");
  const std::size_t timings = raw.find("\"timings\":{");
  if (timings != std::string::npos) {
    const std::size_t close = raw.find('}', timings);
    if (close != std::string::npos) r.tail = raw.substr(close + 1);
  }
  if (const std::size_t at = raw.find("\"reduction\":"); at != std::string::npos)
    r.reduction = std::strtod(raw.c_str() + at + 12, nullptr);
  r.raw = std::move(raw);
  return r;
}

// Sum of the samples of Prometheus metric `name` in `body`.
double metric_value(const std::string& body, const std::string& name) {
  double sum = 0.0;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0 || line.size() <= name.size()) continue;
    const char next = line[name.size()];
    if (next != ' ' && next != '{') continue;
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

// Sends `sequence` (indices into `jobs`) closed loop over `connections`
// connections; replies land at the position of their request.
void drive(std::uint16_t port, const std::vector<ServiceJob>& jobs,
           const std::vector<std::size_t>& sequence, int phase,
           int connections, std::vector<Reply>& out) {
  const std::size_t base = out.size();
  out.resize(base + sequence.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::string> errors(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        Connection conn(port);
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= sequence.size()) break;
          const Clock::time_point t0 = Clock::now();
          conn.send_all(jobs[sequence[i]].line + "\n");
          Reply r = parse_reply(conn.read_line());
          r.latency_ms = ms_since(t0);
          r.job = sequence[i];
          r.phase = phase;
          out[base + i] = std::move(r);
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error(e);
}

}  // namespace

ServerProcess::ServerProcess(const std::string& exe,
                             const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> argv_store{exe};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  const Clock::time_point t0 = Clock::now();
  const int rc = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(out_fd_);
    throw std::runtime_error("cannot start " + exe);
  }
  // Skip output lines until "isex_serve: listening on <host>:<port>".
  std::string buffer;
  std::string line;
  for (;;) {
    if (!read_until_newline(out_fd_, buffer, 30000)) {
      stop();
      ::close(out_fd_);
      throw std::runtime_error("isex_serve did not start");
    }
    const std::size_t nl = buffer.find('\n');
    line = buffer.substr(0, nl);
    buffer.erase(0, nl + 1);
    if (line.find("listening on ") != std::string::npos) break;
  }
  start_ms_ = ms_since(t0);
  port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + line.rfind(':') + 1));
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

long ServerProcess::peak_rss_kib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  return 0;
}

int ServerProcess::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  // Drain its output until it closes (the drain finishes in-flight jobs).
  std::string sink;
  while (read_until_newline(out_fd_, sink, 120000)) sink.clear();
  int status = 0;
  const pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
  if (reaped == 0) {
    // Output closed but the process lingers: give it the rest of the drain.
    for (int i = 0; i < 600 && ::waitpid(pid_, &status, WNOHANG) == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (::kill(pid_, 0) == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  Connection conn(port);
  conn.send_all("GET " + path + " HTTP/1.0\r\n\r\n");
  return conn.read_to_end();
}

ServicePass run_service_pass(const std::string& serve_exe,
                             const std::string& work_dir,
                             const std::vector<ServiceJob>& jobs,
                             const std::vector<std::size_t>& order,
                             int connections, bool traced) {
  std::string dir_template = work_dir + "/svc-XXXXXX";
  if (::mkdtemp(dir_template.data()) == nullptr)
    throw std::runtime_error("cannot make a temporary directory in " + work_dir);
  const std::string dir = dir_template;
  ServicePass pass;
  try {
    const std::string log = dir + "/cache.log";
    const auto args = [&](int phase) {
      std::vector<std::string> a{"--port", "0", "--cache-file", log};
      if (traced) {
        a.push_back("--trace-out");
        a.push_back(dir + "/trace" + std::to_string(phase) + ".json");
      }
      return a;
    };
    const auto scrape = [&](const ServerProcess& server) {
      const std::string body = http_get(server.port(), "/metrics");
      const double hits = metric_value(body, "isex_schedule_cache_hits_total");
      pass.eval_hits += hits;
      pass.eval_lookups += hits + metric_value(body, "isex_schedule_cache_misses_total");
      pass.pool_steals += metric_value(body, "isex_pool_steals_total");
      pass.peak_rss_kib = std::max(pass.peak_rss_kib, server.peak_rss_kib());
    };
    {
      ServerProcess server(serve_exe, args(1));
      const Clock::time_point t0 = Clock::now();
      drive(server.port(), jobs, order, 1, connections, pass.replies);
      pass.phase1_s = ms_since(t0) * 1e-3;
      scrape(server);
      pass.exit1 = server.stop();
    }
    pass.log_bytes = std::filesystem::file_size(log);
    {
      ServerProcess server(serve_exe, args(2));
      pass.warm_start_ms = server.start_ms();
      std::vector<std::size_t> replay(jobs.size());
      for (std::size_t i = 0; i < replay.size(); ++i) replay[i] = i;
      const Clock::time_point t0 = Clock::now();
      drive(server.port(), jobs, replay, 2, connections, pass.replies);
      pass.phase2_s = ms_since(t0) * 1e-3;
      scrape(server);
      pass.exit2 = server.stop();
    }
    if (traced) {
      for (int phase = 1; phase <= 2; ++phase) {
        std::vector<SpanEvent> spans =
            read_chrome_trace(dir + "/trace" + std::to_string(phase) + ".json");
        pass.spans.insert(pass.spans.end(), spans.begin(), spans.end());
      }
    }
  } catch (...) {
    std::filesystem::remove_all(dir);
    throw;
  }
  std::filesystem::remove_all(dir);
  return pass;
}

}  // namespace isexbench
