#include "telemetry/promhttp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "telemetry/aggregator.hpp"
#include "telemetry/health.hpp"
#include "telemetry/registry.hpp"
#include "util/json.hpp"
#include "util/number_text.hpp"

namespace dike::telemetry {
namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names use
/// dots ("sim.swaps"); map everything illegal to '_'.
std::string sanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

void appendValue(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
    return;
  }
  util::appendGeneral(out, value, 17);
}

void appendLine(std::string& out, const std::string& name, double value) {
  out += name;
  out += ' ';
  appendValue(out, value);
  out += '\n';
}

struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

/// Read until `\r\n\r\n` (end of request head) or the buffer cap.
std::string readRequestHead(int fd, int timeoutMs) {
  std::string head;
  char buf[1024];
  while (head.size() < 16 * 1024 &&
         head.find("\r\n\r\n") == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeoutMs);
    if (ready <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    head.append(buf, static_cast<std::size_t>(n));
  }
  return head;
}

void sendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

std::string httpResponse(int status, const char* statusText,
                         const char* contentType, const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += statusText;
  out += "\r\nContent-Type: ";
  out += contentType;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::string renderPrometheusText() {
  auto& registry = Registry::instance();
  std::string out;
  out.reserve(4096);
  // One snapshot each; both are sorted by name (registry map order).
  for (const MetricSnapshot& m : registry.snapshot()) {
    const std::string base = "dike_" + sanitizeMetricName(m.name);
    switch (m.kind) {
      case MetricKind::Counter:
        out += "# TYPE " + base + "_total counter\n";
        appendLine(out, base + "_total", static_cast<double>(m.count));
        break;
      case MetricKind::Timer:
        out += "# TYPE " + base + "_seconds_total counter\n";
        appendLine(out, base + "_seconds_total", m.value);
        out += "# TYPE " + base + "_calls_total counter\n";
        appendLine(out, base + "_calls_total", static_cast<double>(m.count));
        break;
      case MetricKind::Gauge:
        out += "# TYPE " + base + " gauge\n";
        appendLine(out, base, m.value);
        break;
      case MetricKind::Histogram:
        break;  // emitted below as a summary with quantiles
    }
  }
  for (const auto& [name, snap] : registry.histogramSnapshots()) {
    const std::string base = "dike_" + sanitizeMetricName(name);
    out += "# TYPE " + base + " summary\n";
    appendLine(out, base + "{quantile=\"0.5\"}", snap.p50());
    appendLine(out, base + "{quantile=\"0.9\"}", snap.p90());
    appendLine(out, base + "{quantile=\"0.99\"}", snap.p99());
    appendLine(out, base + "{quantile=\"0.999\"}", snap.p999());
    appendLine(out, base + "_sum", snap.sum);
    appendLine(out, base + "_count", static_cast<double>(snap.count));
    appendLine(out, base + "_min", snap.min);
    appendLine(out, base + "_max", snap.max);
  }
  return out;
}

std::string renderLiveStateJson() {
  // NaN has no JSON literal: a signal the scheduler cannot supply (CFS
  // has no unfairness observer) must render as null, never "nan".
  const auto numberOrNull = [](double v) {
    return std::isnan(v) ? util::JsonValue{} : util::JsonValue{v};
  };
  const LiveState state = Aggregator::instance().liveState();
  util::JsonArray cores;
  cores.reserve(state.cores.size());
  for (const LiveCoreState& core : state.cores) {
    util::JsonObject c;
    c.emplace("core", core.core);
    c.emplace("thread", core.thread);
    c.emplace("process", core.process);
    c.emplace("highBw", core.highBw);
    c.emplace("slowdown", numberOrNull(core.slowdown));
    cores.emplace_back(std::move(c));
  }
  util::JsonObject doc;
  doc.emplace("tick", static_cast<double>(state.tick));
  doc.emplace("quantum", static_cast<double>(state.quantum));
  doc.emplace("unfairness", numberOrNull(state.unfairness));
  doc.emplace("fairnessSpread", numberOrNull(state.fairnessSpread));
  doc.emplace("scheduler", state.scheduler);
  doc.emplace("cores", std::move(cores));
  return util::JsonValue{std::move(doc)}.dump();
}

PromHttpServer::~PromHttpServer() { stop(); }

void PromHttpServer::start(std::uint16_t port) {
  if (listenFd_ >= 0) throw std::runtime_error("PromHttpServer: already running");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("PromHttpServer: socket() failed");
  FdCloser guard{fd};
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error("PromHttpServer: cannot bind 127.0.0.1:" +
                             std::to_string(port) + " (" +
                             std::strerror(errno) + ")");
  }
  if (::listen(fd, 8) != 0) {
    throw std::runtime_error("PromHttpServer: listen() failed");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("PromHttpServer: getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  listenFd_ = fd;
  guard.fd = -1;  // ownership moved to the server
  thread_ = std::jthread(
      [this](const std::stop_token& stop) { serveLoop(stop); });
}

void PromHttpServer::stop() {
  if (listenFd_ < 0) return;
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
  ::close(listenFd_);
  listenFd_ = -1;
  port_ = 0;
}

void PromHttpServer::serveLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    pollfd pfd{listenFd_, POLLIN, 0};
    // Short poll timeout so stop() is honoured promptly.
    const int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    handleConnection(fd);
  }
}

void PromHttpServer::handleConnection(int fd) {
  FdCloser guard{fd};
  const std::string head = readRequestHead(fd, 1000);
  const auto lineEnd = head.find("\r\n");
  const std::string requestLine =
      lineEnd == std::string::npos ? head : head.substr(0, lineEnd);
  // "GET <path> HTTP/1.x"
  std::string path;
  if (requestLine.rfind("GET ", 0) == 0) {
    const auto pathEnd = requestLine.find(' ', 4);
    path = requestLine.substr(4, pathEnd == std::string::npos
                                     ? std::string::npos
                                     : pathEnd - 4);
  }
  if (path.empty()) {
    sendAll(fd, httpResponse(400, "Bad Request", "text/plain",
                             "only GET is supported\n"));
    return;
  }
  if (path == "/metrics") {
    // Fold in everything in flight so a scrape reflects the present, not
    // the last background drain.
    Aggregator::instance().drainNow();
    sendAll(fd, httpResponse(200, "OK",
                             "text/plain; version=0.0.4; charset=utf-8",
                             renderPrometheusText()));
  } else if (path == "/state") {
    sendAll(fd, httpResponse(200, "OK", "application/json",
                             renderLiveStateJson()));
  } else if (path == "/healthz") {
    // A real liveness probe, not a static 200: the body carries the last
    // completed quantum and how stale it is, so a wedged run (which keeps
    // this server thread responsive) is still detectable from outside.
    sendAll(fd, httpResponse(200, "OK", "application/json",
                             renderHealthJson(healthSnapshot()) + "\n"));
  } else {
    sendAll(fd, httpResponse(404, "Not Found", "text/plain",
                             "unknown path; try /metrics, /state, /healthz\n"));
  }
}

std::string httpGet(std::uint16_t port, const std::string& path,
                    const std::string& host, int timeoutMs) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("httpGet: socket() failed");
  FdCloser guard{fd};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("httpGet: bad host address " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw std::runtime_error("httpGet: cannot connect to " + host + ":" +
                             std::to_string(port));
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  sendAll(fd, request);
  std::string response;
  char buf[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeoutMs);
    if (ready <= 0) {
      throw std::runtime_error("httpGet: timeout reading " + path);
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) throw std::runtime_error("httpGet: recv() failed");
    if (n == 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  const auto headEnd = response.find("\r\n\r\n");
  if (headEnd == std::string::npos) {
    throw std::runtime_error("httpGet: malformed response for " + path);
  }
  if (response.rfind("HTTP/1.0 200", 0) != 0 &&
      response.rfind("HTTP/1.1 200", 0) != 0) {
    throw std::runtime_error("httpGet: non-200 for " + path + ": " +
                             response.substr(0, response.find("\r\n")));
  }
  return response.substr(headEnd + 4);
}

}  // namespace dike::telemetry
