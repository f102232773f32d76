// The serve_socket workload: the model server over its real AF_UNIX socket.
//
// Set-up: the Table IV default-size model (32x32 SRAM array, 1086 variables,
// OMP at K = 500 with 4-fold CV, as bench/model_serve.cpp fits it) is saved
// to a ModelRegistry and a ModelServer is started on it, with its pool sized
// to nproc - 1 and 256-row batch chunks so a 1024-row eval_batch fans out
// over the pool. Set-up is repeated nine times in an untraced run. The
// traced run also makes the shared layer probes on the set-up's problem and
// the served model.
//
// Load: a closed loop from one client thread over two connections, each
// sending its next frame only after the previous reply — sweep callers wait
// for each answer. Frames are a seeded mix of single-point eval and 1024-row
// eval_batch. Every answer is compared bit for bit with in-process
// SparseModel::predict / predict_batch; a mismatch, a shed request or an
// error reply counts as a failed operation.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "core/pipeline.hpp"
#include "harness.hpp"
#include "obs/resource.hpp"
#include "obs/trace_export.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/cancellation.hpp"
#include "util/errors.hpp"

namespace perfbench {
namespace {

using rsm::Index;
using rsm::Matrix;
using rsm::Real;
using rsm::obs::JsonValue;
namespace serve = rsm::serve;

/// A set-up takes about 0.2 s, shorter than a burst of the host's load, so
/// its median needs more samples than the fit workloads' 5.
constexpr int kSetupRepeats = 9;
constexpr Index kMaxLambda = 80;
constexpr const char* kModelName = "sram_delay";
constexpr Index kEvalPoints = 1024;
constexpr Index kBatchRows = 1024;
constexpr Index kBatchPool = 4;
/// Connection 1 sends an eval_batch as one frame in kBatchEvery, connection
/// 0 sends only evals, so two batches are never in flight together (that
/// would double a batch's latency at random). A batch holds the server's
/// single-threaded loop for tens of ms, so the eval in flight on the other
/// connection waits behind it; at this mix those blocked evals stay near
/// 0.2 % of all evals, and a 10 s run still answers >= 100 batches (a p90
/// with 10 samples beyond it).
///
/// This mix was picked for steady figures, not taken from any observed
/// caller. Because batches never overlap, contention between concurrent
/// batches is not measured here: a pool or server change that only slows
/// overlapping batches leaves this workload unchanged.
constexpr std::uint64_t kBatchEvery = 165;
constexpr std::uint64_t kMinEvals = 10000;
constexpr std::uint64_t kMinBatches = 100;

bool same_bits(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

int server_threads() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n - 1);
}

/// A fitted model saved to a registry and served on a socket. The server
/// loop runs on its own thread until the object is destroyed.
class ServedModel {
 public:
  ServedModel(rsm::SparseModel fitted, int index) : model(std::move(fitted)) {
    registry_root = "registry" + std::to_string(index);
    socket_path = "serve" + std::to_string(index) + ".sock";
    std::filesystem::remove_all(registry_root);
    serve::ModelRegistry(registry_root).save(kModelName, model);
    serve::ServerOptions so;
    so.socket_path = socket_path;
    so.registry_root = registry_root;
    so.num_threads = server_threads();
    so.batch_chunk = kBatchRows / 4;
    so.cancel = cancel_.token();
    server = std::make_unique<serve::ModelServer>(std::move(so));
    thread_ = std::thread([this] {
      try {
        server->run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ServedModel(const ServedModel&) = delete;
  ServedModel& operator=(const ServedModel&) = delete;
  ~ServedModel() { stop(); }

  /// Stops the server loop (graceful drain), joins its thread and copies
  /// its counters into `stats`. Returns the server loop's error, if any.
  std::string stop() {
    if (thread_.joinable()) {
      cancel_.request_cancel();
      thread_.join();
      stats = server->stats();
      server.reset();
      std::filesystem::remove_all(registry_root);
    }
    return error_;
  }

  rsm::SparseModel model;
  std::string registry_root;
  std::string socket_path;
  std::unique_ptr<serve::ModelServer> server;
  serve::ServerStats stats;

 private:
  rsm::CancellationSource cancel_;
  std::string error_;
  std::thread thread_;
};

/// A request frame and the answer in-process prediction gives for it.
struct Request {
  std::string frame;
  std::vector<Real> expected;
  bool batch = false;
};

std::vector<Request> make_requests(const rsm::SparseModel& model,
                                   std::uint64_t seed) {
  const Index n = model.dictionary().num_variables();
  rsm::Rng rng(0x5e77e + seed);
  std::vector<Request> requests;
  const Matrix points = rsm::monte_carlo_normal(kEvalPoints, n, rng);
  for (Index r = 0; r < kEvalPoints; ++r) {
    std::string payload;
    serve::put_bytes(payload, kModelName);
    serve::put_u32(payload, 0);
    serve::put_u32(payload, static_cast<std::uint32_t>(n));
    for (const Real v : points.row(r)) serve::put_real(payload, v);
    requests.push_back({serve::encode_frame(serve::MessageType::kEvalRequest, payload),
                        {model.predict(points.row(r))}, false});
  }
  for (Index b = 0; b < kBatchPool; ++b) {
    const Matrix rows = rsm::monte_carlo_normal(kBatchRows, n, rng);
    std::string payload;
    serve::put_bytes(payload, kModelName);
    serve::put_u32(payload, 0);
    serve::put_u32(payload, static_cast<std::uint32_t>(kBatchRows));
    serve::put_u32(payload, static_cast<std::uint32_t>(n));
    for (Index i = 0; i < rows.size(); ++i) serve::put_real(payload, rows.data()[i]);
    std::vector<Real> expected(static_cast<std::size_t>(kBatchRows));
    model.predict_batch(rows, expected);
    requests.push_back(
        {serve::encode_frame(serve::MessageType::kEvalBatchRequest, payload),
         std::move(expected), true});
  }
  return requests;
}

/// True when `frame` is the right reply type carrying exactly the expected
/// values, bit for bit. An error reply (shed or otherwise) is not.
bool answered_correctly(const serve::Frame& frame, const Request& request) {
  try {
    serve::WireReader in(frame.payload, "reply");
    if (request.batch) {
      if (frame.type != serve::MessageType::kEvalBatchResponse ||
          in.u32() != request.expected.size())
        return false;
    } else if (frame.type != serve::MessageType::kEvalResponse) {
      return false;
    }
    for (const Real want : request.expected)
      if (!same_bits(in.real(), want)) return false;
    in.expect_done();
    return true;
  } catch (const rsm::Error&) {
    return false;
  }
}

int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw rsm::Error("socket(): " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw rsm::Error("connect(" + path + "): " + std::strerror(errno));
  }
  return fd;
}

struct LoadResult {
  std::vector<double> eval_us;
  std::vector<double> batch_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
};

/// The closed loop: each connection has one request in flight; the next
/// request is drawn from the seeded mix when its reply arrives.
LoadResult closed_loop(const std::string& socket_path,
                       const std::vector<Request>& requests, std::uint64_t seed,
                       double seconds) {
  struct Connection {
    int fd = -1;
    const Request* request = nullptr;
    std::size_t sent = 0;
    double started = 0;
    std::string rx;
  };
  rsm::Rng mix(0x313 + seed);
  const std::size_t evals = static_cast<std::size_t>(kEvalPoints);
  const auto next_request = [&](bool may_batch) -> const Request* {
    if (may_batch && mix.uniform_index(static_cast<Index>(kBatchEvery)) == 0)
      return &requests[evals + static_cast<std::size_t>(mix.uniform_index(kBatchPool))];
    return &requests[static_cast<std::size_t>(mix.uniform_index(kEvalPoints))];
  };

  LoadResult result;
  Connection conns[2];
  for (Connection& c : conns) c.fd = connect_to(socket_path);
  const double t0 = now_s();
  const double cap = t0 + 3 * seconds + 20;
  const auto keep_going = [&] {
    const double now = now_s();
    if (now >= cap) return false;
    return now - t0 < seconds || result.eval_us.size() < kMinEvals ||
           result.batch_ms.size() < kMinBatches;
  };
  const auto start = [&](Connection& c) {
    c.request = next_request(&c == &conns[1]);
    c.sent = 0;
    c.started = now_s();
    ++result.attempted;
  };
  for (Connection& c : conns) start(c);

  char buf[1 << 16];
  while (conns[0].request != nullptr || conns[1].request != nullptr) {
    pollfd fds[2];
    for (int i = 0; i < 2; ++i) {
      const Connection& c = conns[i];
      short events = 0;
      if (c.request != nullptr) {
        events = POLLIN;
        if (c.sent < c.request->frame.size()) events |= POLLOUT;
      }
      fds[i] = pollfd{c.request != nullptr ? c.fd : -1, events, 0};
    }
    if (::poll(fds, 2, 1000) < 0 && errno != EINTR)
      throw rsm::Error("poll(): " + std::string(std::strerror(errno)));
    if (now_s() > cap + 30) throw rsm::Error("server stopped answering");
    for (int i = 0; i < 2; ++i) {
      Connection& c = conns[i];
      if (c.request == nullptr) continue;
      if ((fds[i].revents & POLLOUT) != 0) {
        const std::string& frame = c.request->frame;
        const ssize_t n = ::send(c.fd, frame.data() + c.sent,
                                 frame.size() - c.sent, MSG_NOSIGNAL);
        if (n > 0) c.sent += static_cast<std::size_t>(n);
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n == 0) throw rsm::Error("server closed a connection");
      if (n < 0) continue;
      c.rx.append(buf, static_cast<std::size_t>(n));
      std::optional<serve::Frame> frame = serve::try_extract_frame(c.rx);
      if (!frame) continue;
      const double latency = now_s() - c.started;
      if (!answered_correctly(*frame, *c.request)) ++result.failed;
      else if (c.request->batch) result.batch_ms.push_back(1e3 * latency);
      else result.eval_us.push_back(1e6 * latency);
      c.request = nullptr;
      if (keep_going()) start(c);
    }
  }
  result.wall_s = now_s() - t0;
  for (Connection& c : conns) ::close(c.fd);
  return result;
}

}  // namespace

int run_serve_workload(const RunArgs& args, JsonValue& out) {
  std::unique_ptr<Problem> problem;
  std::unique_ptr<ServedModel> served;
  JsonValue layers = JsonValue::object();
  Real test_error = 0;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    if (served) {
      const std::string error = served->stop();
      if (!error.empty()) throw rsm::Error("server: " + error);
      served.reset();
    }
    problem.reset();
    const double t0 = now_s();
    problem = setup_sram(args.seed, 32, 32, 500);
    if (args.trace) layers.set("rss_after_setup_mb", rss_hwm_mb());
    rsm::BuildOptions opt;
    opt.method = rsm::Method::kOmp;
    opt.max_lambda = kMaxLambda;
    Fit fit = run_fit(*problem, problem->g_pool, problem->first_values(), opt,
                      args.trace);
    served = std::make_unique<ServedModel>(std::move(fit.report.model), rep);
    setup_s.push_back(now_s() - t0);
    test_error = rsm::validate_model(served->model, problem->test_inputs,
                                     problem->targets.front().f_test);
    if (args.trace) {
      JsonValue record = JsonValue::object();
      record.set("seconds", fit.seconds);
      record.set("spans", std::move(fit.spans));
      layers.set("setup_fit", std::move(record));
    }
  }
  out.set("setup_s", json_array(setup_s));
  out.set("test_error", static_cast<double>(test_error));

  const std::vector<Request> requests = make_requests(served->model, args.seed);
  const rsm::obs::ResourceUsage before = rsm::obs::sample_resource_usage();
  const LoadResult load =
      closed_loop(served->socket_path, requests, args.seed, args.seconds);
  const rsm::obs::ResourceUsage used =
      rsm::obs::resource_delta(rsm::obs::sample_resource_usage(), before);
  out.set("peak_rss_mb", rss_hwm_mb());
  const std::string error = served->stop();
  if (!error.empty()) throw rsm::Error("server: " + error);
  // The server thread has exited, so its span tree is visible now.
  (void)rsm::obs::export_trace_if_configured("perfbench.serve_socket");
  const serve::ServerStats& stats = served->stats;

  out.set("eval_us", json_array(load.eval_us));
  out.set("batch_ms", json_array(load.batch_ms));
  out.set("attempted", static_cast<std::int64_t>(load.attempted));
  out.set("failed", static_cast<std::int64_t>(load.failed));
  out.set("wall_s", load.wall_s);
  JsonValue server = JsonValue::object();
  server.set("requests", static_cast<std::int64_t>(stats.requests_served));
  server.set("admitted", static_cast<std::int64_t>(stats.requests_admitted));
  server.set("shed", static_cast<std::int64_t>(stats.requests_shed));
  server.set("request_errors", static_cast<std::int64_t>(stats.request_errors));
  out.set("server", std::move(server));
  if (args.trace) {
    const Problem& p = *problem;
    layers.set("sim_samples", static_cast<std::int64_t>(p.samples_simulated));
    layers.set("sim_s", p.sim_s);
    layers.set("design_matrix_s", p.design_s);
    JsonValue proc = JsonValue::object();
    proc.set("wall_s", load.wall_s);
    proc.set("cpu_s", used.user_cpu_seconds + used.system_cpu_seconds);
    proc.set("invol_ctx_switches", used.involuntary_ctx_switches);
    layers.set("proc", std::move(proc));
    layers.set("probes", layer_probes(p, kMaxLambda, served->model));
    out.set("layers", std::move(layers));
  }
  std::printf("serve_socket: lambda=%ld test error %.3f%%, %zu evals + %zu "
              "batches in %.2f s, %llu failed\n",
              static_cast<long>(served->model.num_terms()), 100.0 * test_error,
              load.eval_us.size(), load.batch_ms.size(), load.wall_s,
              static_cast<unsigned long long>(load.failed));
  return static_cast<int>(load.failed);
}

}  // namespace perfbench
