// The wire-h2 workload: an open-loop EFN1 load from one benchmark-owned
// driver thread over 4 loopback connections into a NetServer in front of
// an InferenceServer with 2 workers. Requests are single h2 rows, so the
// network and serving layers do nearly all the work and the network
// forward is negligible.
//
// Untraced: a nominal phase (1,000 req/s), then a rate ladder that finds
// max_rps. Traced: the nominal schedule over the wire twice (untraced and
// traced), the same schedule in-process through SubmitAsync (the network
// tax is the difference), and a 20,000 req/s overload phase.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/frame.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "tasks/tasks.h"
#include "wire_driver.h"

namespace perfbench {

namespace {

namespace net = errorflow::net;
namespace serve = errorflow::serve;
namespace tasks = errorflow::tasks;
using errorflow::StatusCode;
using errorflow::tensor::Tensor;

constexpr char kModel[] = "h2";
// Admission serves these at fp32, fp16 and int8 on this model.
constexpr double kTolerances[] = {1e-3, 1e-1, 1.0};
constexpr int kServerWorkers = 2;
constexpr int kConnections = 4;
constexpr double kNominalRate = 1000.0;
constexpr double kOverloadRate = 20000.0;
// The latency limit of max_rps and of the generator's own validity.
constexpr double kLatencyLimitMs = 20.0;
constexpr double kMinOkShare = 0.999;
constexpr double kLadderFactor = 1.25;
constexpr int kLadderRefinements = 3;
// Every rung and nominal window holds enough requests for a p99 with at
// least 10 samples beyond it; the nominal latency is the median over
// windows, so one burst of host noise moves one window, not the result.
constexpr double kRungRequests = 2000.0;
constexpr double kWindowRequests = 1200.0;
constexpr uint64_t kMinNominalWindows = 3;
constexpr double kOverloadSeconds = 1.0;
// A phase the generator ran late for is repeated at most this often.
constexpr int kPhaseAttempts = 3;
// Requests still unanswered this long after the last send are counted as
// unanswered; it equals the server's default request deadline.
constexpr double kDrainSeconds = 1.0;
// Latency charged to a request that got no OK answer: it misses any limit.
constexpr double kMissedMs = 1e9;

uint64_t InputSeed(uint64_t seed) { return seed * 1000 + 1; }

// Seed of one phase's schedule, distinct per workload seed and phase.
uint64_t PhaseSeed(uint64_t seed, uint64_t phase) {
  SplitMix64 mix(seed * 0x100000001b3ull + phase);
  return mix.Next();
}

Tensor Row(const Tensor& batch, int64_t r) {
  Tensor row({1, batch.dim(1)});
  std::copy(batch.data() + r * batch.dim(1),
            batch.data() + (r + 1) * batch.dim(1), row.data());
  return row;
}

double MaxAbsDiff(const Tensor& a, const float* b, int64_t n) {
  if (a.size() != n) return INFINITY;
  double worst = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return worst;
}

bool IsTypedRefusal(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded;
}

// Inputs, FP32 references and pre-encoded Submit payloads; request i of
// every phase uses row (i / 3) % rows at tolerance kTolerances[i % 3].
struct Traffic {
  Tensor rows;
  Tensor references;
  std::vector<std::string> payloads;
  double raw_bytes_per_request = 0.0;

  size_t PayloadOf(size_t i) const {
    const size_t n_rows = static_cast<size_t>(rows.dim(0));
    return ((i / std::size(kTolerances)) % n_rows) * std::size(kTolerances) +
           i % std::size(kTolerances);
  }
  int64_t RowOfPayload(size_t p) const {
    return static_cast<int64_t>(p / std::size(kTolerances));
  }
};

Traffic MakeTraffic(const Options& options) {
  tasks::TrainedTask task =
      tasks::GetTask(tasks::TaskKind::kH2Combustion,
                     tasks::Regularization::kPsn, kModelSeed,
                     options.models_dir);
  Traffic t;
  t.rows = tasks::FreshInputBatches(task, 1, InputSeed(options.seed))[0];
  t.references = task.model.Predict(t.rows);
  t.raw_bytes_per_request =
      static_cast<double>(t.rows.dim(1)) * sizeof(float);
  for (int64_t r = 0; r < t.rows.dim(0); ++r) {
    for (double tol : kTolerances) {
      net::SubmitFrame submit;
      submit.model = kModel;
      submit.qoi_tolerance = tol;
      submit.input = Row(t.rows, r);
      t.payloads.push_back(
          net::EncodeSubmit(0, submit).substr(net::kFrameHeaderBytes));
    }
  }
  return t;
}

// An InferenceServer behind a NetServer, with the driver's connections.
struct Stack {
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<net::NetServer> wire;
  std::optional<WireDriver> driver;

  // The inference server drains first so every in-flight request is
  // answered before the wire layer closes (NetServer's documented order).
  Status Stop() {
    driver.reset();
    Status st = server ? server->Shutdown() : Status::OK();
    Status wst = wire ? wire->Shutdown() : Status::OK();
    wire.reset();
    server.reset();
    return st.ok() ? wst : st;
  }
  ~Stack() { Stop(); }

  // Waits (bounded) until nothing is queued or in flight, so one phase's
  // backlog does not spill into the next.
  void Settle() const {
    const double until = Now() + 2.0;
    while (Now() < until &&
           (server->queue_depth() > 0 || wire->in_flight_requests() > 0)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
};

Status StartStack(const Options& options, const Traffic& traffic,
                  Stack* stack, SetupTimes* setup) {
  const double t0 = Now();
  tasks::TrainedTask task =
      tasks::GetTask(tasks::TaskKind::kH2Combustion,
                     tasks::Regularization::kPsn, kModelSeed,
                     options.models_dir);
  const double t1 = Now();
  serve::ServerConfig cfg;
  cfg.num_workers = kServerWorkers;
  stack->server = std::make_unique<serve::InferenceServer>(cfg);
  Status st = stack->server->RegisterModel(kModel, std::move(task.model),
                                           task.single_input_shape);
  if (!st.ok()) return st;
  const double t2 = Now();
  st = stack->server->Start();
  if (!st.ok()) return st;
  const double t3 = Now();
  // One request per tolerance materializes every variant the traffic uses.
  for (size_t k = 0; k < std::size(kTolerances); ++k) {
    serve::InferenceRequest req;
    req.model = kModel;
    req.input = Row(traffic.rows, 0);
    req.qoi_tolerance = kTolerances[k];
    auto fut = stack->server->Submit(std::move(req));
    if (!fut.ok()) return fut.status();
    serve::InferenceResponse resp = fut->get();
    if (!resp.ok()) return resp.status;
  }
  const double t4 = Now();
  net::NetServerConfig net_cfg;
  net_cfg.drain_timeout = std::chrono::milliseconds(2000);
  // The driver's connections sit idle between phases (and through the
  // in-process replay); they must outlive the idle reclamation.
  net_cfg.idle_timeout = std::chrono::seconds(120);
  stack->wire = std::make_unique<net::NetServer>(stack->server.get(), net_cfg);
  st = stack->wire->Start();
  if (!st.ok()) return st;
  auto driver = WireDriver::Connect(stack->wire->port(), kConnections);
  if (!driver.ok()) return driver.status();
  stack->driver.emplace(std::move(*driver));
  const double t5 = Now();
  setup->model_load.push_back(t1 - t0);
  setup->profile.push_back(t2 - t1);
  setup->materialize.push_back(t4 - t3);
  setup->server_start.push_back((t3 - t2) + (t5 - t4));
  setup->total.push_back(t5 - t0);
  return Status::OK();
}

// One wire phase, with every answer checked.
struct PhaseStats {
  std::vector<double> due;
  WirePhase raw;
  double start = 0.0;  // Now() at the phase start, for spans.
  double seconds = 0.0;
  std::vector<double> latency_ms;  // From the due time; kMissedMs if no OK.
  std::vector<double> server_ms;   // Server-side time of OK answers.
  std::vector<double> tightness;
  int64_t ok = 0, refused = 0, errors = 0, unanswered = 0;
  int64_t violations = 0;    // OK answers outside their bound.
  int64_t ok_in_window = 0;  // OK answers read before the phase ended.
  double raw_ok_bytes = 0.0;
  double lateness_p99_ms = 0.0;
  bool valid = true;

  int64_t sent() const { return static_cast<int64_t>(due.size()); }
  double ok_share() const {
    return due.empty() ? 0.0
                       : static_cast<double>(ok) /
                             static_cast<double>(due.size());
  }
};

Result<PhaseStats> RunPhase(Stack* stack, const Traffic& traffic, double rate,
                            double seconds, uint64_t seed, Report* report) {
  PhaseStats p;
  p.seconds = seconds;
  p.due = PoissonArrivals(rate, seconds, seed);
  std::vector<size_t> payload_of(p.due.size());
  for (size_t i = 0; i < payload_of.size(); ++i) {
    payload_of[i] = traffic.PayloadOf(i);
  }
  p.start = Now();
  auto raw = stack->driver->Run(p.due, payload_of, traffic.payloads,
                                kDrainSeconds);
  if (!raw.ok()) return raw.status();
  p.raw = std::move(*raw);
  const int64_t width = traffic.references.dim(1);
  for (size_t i = 0; i < p.due.size(); ++i) {
    const WireAnswer& a = p.raw.answers[i];
    double latency = kMissedMs;
    switch (a.kind) {
      case WireAnswer::Kind::kOk: {
        const int64_t row = traffic.RowOfPayload(payload_of[i]);
        const double err =
            MaxAbsDiff(a.response.output,
                       traffic.references.data() + row * width, width);
        const double bound = a.response.predicted_qoi_bound;
        report->Check(err <= bound, "wire response error " +
                                        std::to_string(err) + " > bound " +
                                        std::to_string(bound));
        if (err > bound) p.violations += 1;
        if (bound > 0.0) p.tightness.push_back(err / bound);
        latency = (a.done - p.due[i]) * 1e3;
        p.server_ms.push_back(a.response.total_seconds * 1e3);
        p.ok += 1;
        if (a.done <= seconds) p.ok_in_window += 1;
        p.raw_ok_bytes += traffic.raw_bytes_per_request;
        break;
      }
      case WireAnswer::Kind::kError:
        if (IsTypedRefusal(static_cast<StatusCode>(a.error_code))) {
          report->CountAttempted(1);
          p.refused += 1;
        } else {
          report->Check(false, "wire error frame code " +
                                   std::to_string(a.error_code));
          p.errors += 1;
        }
        break;
      case WireAnswer::Kind::kUnanswered:
        report->CountAttempted(1);
        p.unanswered += 1;
        break;
    }
    p.latency_ms.push_back(latency);
  }
  p.lateness_p99_ms = PercentileOf(p.raw.lateness_ms, 99).value;
  p.valid = p.lateness_p99_ms <= kLatencyLimitMs / 10;
  std::fprintf(stderr,
               "phase %8.1f req/s x %.2fs: ok %lld refused %lld unanswered "
               "%lld  p50 %.3f p99 %.3f ms  late p50 %.3f p99 %.3f ms  busy "
               "%.3f  backlog %lld\n",
               rate, seconds, static_cast<long long>(p.ok),
               static_cast<long long>(p.refused),
               static_cast<long long>(p.unanswered),
               PercentileOf(p.latency_ms, 50).value,
               PercentileOf(p.latency_ms, 99).value,
               PercentileOf(p.raw.lateness_ms, 50).value, p.lateness_p99_ms,
               p.raw.busy_seconds / p.raw.wall_seconds,
               static_cast<long long>(p.raw.outstanding_at_last_send));
  return p;
}

// max_rps rule: p99 within the limit with enough samples to say so, at
// least 99.9% answered OK, and no backlog beyond what the limit allows.
bool RungPasses(const PhaseStats& p, double rate) {
  const Quantile p99 = PercentileOf(p.latency_ms, 99);
  const double allowed_backlog = std::max(4.0, rate * kLatencyLimitMs / 1e3);
  return p99.supported && p99.value <= kLatencyLimitMs &&
         p.ok_share() >= kMinOkShare &&
         static_cast<double>(p.raw.outstanding_at_last_send) <=
             allowed_backlog;
}

void AddWireSpans(const PhaseStats& p, const char* name, Report* report) {
  for (size_t i = 0; i < p.due.size(); ++i) {
    const WireAnswer& a = p.raw.answers[i];
    const double end =
        a.kind == WireAnswer::Kind::kUnanswered ? p.raw.wall_seconds : a.done;
    const size_t id =
        report->AddSpan(name, -1, p.start + p.due[i], p.start + end);
    report->AddSpan("driver.send", static_cast<int64_t>(id),
                    p.start + p.due[i], p.start + a.sent);
  }
}

// The nominal schedule replayed in-process through SubmitAsync.
struct InProcess {
  std::vector<double> latency_ms;   // From the due time.
  std::vector<double> complete_ms;  // From the SubmitAsync call.
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  double batch_rows_sum = 0.0;
  int64_t ok = 0, refused = 0, failed = 0, unanswered = 0, violations = 0;
};

// Replays one schedule in-process, adding its outcomes to `out`.
void ReplayInProcess(serve::InferenceServer* server, const Traffic& traffic,
                     const std::vector<double>& due, InProcess* out,
                     Report* report) {
  struct Slot {
    double submitted = 0.0;
    double done = 0.0;
    bool answered = false;
    serve::InferenceResponse response;
  };
  // Shared with the callbacks, which may outlive this function when a
  // request is still queued at the end of the drain.
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Slot> slots;
    int64_t pending = 0;
  };
  auto shared = std::make_shared<Shared>();
  shared->slots.resize(due.size());
  std::vector<bool> admitted(due.size(), false);

  const auto start = std::chrono::steady_clock::now();
  const double start_s = Now();
  for (size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(due[i])));
    const size_t p = traffic.PayloadOf(i);
    serve::InferenceRequest req;
    req.model = kModel;
    req.input = Row(traffic.rows, traffic.RowOfPayload(p));
    req.qoi_tolerance = kTolerances[p % std::size(kTolerances)];
    const double t = Now() - start_s;
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->slots[i].submitted = t;
      shared->pending += 1;
    }
    Status st = server->SubmitAsync(
        std::move(req), [shared, i, start_s](serve::InferenceResponse&& r) {
          const double done = Now() - start_s;
          std::lock_guard<std::mutex> lock(shared->mu);
          shared->slots[i].done = done;
          shared->slots[i].response = std::move(r);
          shared->slots[i].answered = true;
          shared->pending -= 1;
          shared->cv.notify_all();
        });
    out->submit_us.push_back((Now() - start_s - t) * 1e6);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->pending -= 1;
      if (IsTypedRefusal(st.code())) {
        out->refused += 1;
        report->CountAttempted(1);
      } else {
        out->failed += 1;
        report->Check(false, "SubmitAsync: " + st.ToString());
      }
      continue;
    }
    admitted[i] = true;
  }

  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait_for(lock, std::chrono::duration<double>(kDrainSeconds),
                      [&] { return shared->pending == 0; });
  const int64_t width = traffic.references.dim(1);
  for (size_t i = 0; i < due.size(); ++i) {
    if (!admitted[i]) {
      out->latency_ms.push_back(kMissedMs);
      continue;
    }
    const Slot& s = shared->slots[i];
    if (!s.answered) {
      out->unanswered += 1;
      report->CountAttempted(1);
      out->latency_ms.push_back(kMissedMs);
      continue;
    }
    if (!s.response.ok()) {
      if (IsTypedRefusal(s.response.status.code())) {
        out->refused += 1;
        report->CountAttempted(1);
      } else {
        out->failed += 1;
        report->Check(false, "in-process " + s.response.status.ToString());
      }
      out->latency_ms.push_back(kMissedMs);
      continue;
    }
    const int64_t row = traffic.RowOfPayload(traffic.PayloadOf(i));
    const double err =
        MaxAbsDiff(s.response.output,
                   traffic.references.data() + row * width, width);
    report->Check(err <= s.response.predicted_qoi_bound,
                  "in-process response error " + std::to_string(err));
    if (err > s.response.predicted_qoi_bound) out->violations += 1;
    out->ok += 1;
    out->latency_ms.push_back((s.done - due[i]) * 1e3);
    out->complete_ms.push_back((s.done - s.submitted) * 1e3);
    out->queue_ms.push_back(s.response.queue_seconds * 1e3);
    out->batch_rows_sum += static_cast<double>(s.response.batch_rows);
  }
}

// Gives the driver thread a core of its own: until `PinDriver` runs, the
// calling thread (and every thread it starts, such as the server's
// workers and event loop) may use every allowed CPU but the first; the
// driver then takes the first. With a single CPU nothing is pinned.
class DriverCore {
 public:
  DriverCore() {
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        driver_cpu_ = cpu;
        break;
      }
    }
    if (driver_cpu_ < 0 || CPU_COUNT(&all_) < 2) {
      driver_cpu_ = -1;
      return;
    }
    cpu_set_t rest = all_;
    CPU_CLR(driver_cpu_, &rest);
    pthread_setaffinity_np(pthread_self(), sizeof(rest), &rest);
  }
  ~DriverCore() {
    if (driver_cpu_ >= 0) {
      pthread_setaffinity_np(pthread_self(), sizeof(all_), &all_);
    }
  }
  DriverCore(const DriverCore&) = delete;
  DriverCore& operator=(const DriverCore&) = delete;

  void PinDriver() const {
    if (driver_cpu_ < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(driver_cpu_, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }

 private:
  cpu_set_t all_{};
  int driver_cpu_ = -1;
};

double RegistryCounter(const char* name) {
  return static_cast<double>(
      errorflow::obs::MetricsRegistry::Global().CounterValue(name));
}

// Runs a phase after the server has settled. A phase the generator ran
// late for is not reported: it is repeated on a fresh schedule, up to
// kPhaseAttempts times, and the last attempt is returned either way.
Result<PhaseStats> RunValidPhase(Stack* stack, const Traffic& traffic,
                                 double rate, double seconds, uint64_t seed,
                                 Report* report) {
  Result<PhaseStats> p = Status::Internal("no attempt");
  for (int attempt = 0; attempt < kPhaseAttempts; ++attempt) {
    stack->Settle();
    p = RunPhase(stack, traffic, rate, seconds,
                 PhaseSeed(seed, static_cast<uint64_t>(attempt)), report);
    if (!p.ok() || p->valid) break;
  }
  return p;
}

// Windows of kWindowRequests requests at the nominal rate, filling half
// of the run; window w's schedule depends only on (seed, w).
uint64_t NominalWindows(double run_seconds) {
  const double window_seconds = kWindowRequests / kNominalRate;
  return std::max(kMinNominalWindows,
                  static_cast<uint64_t>(0.5 * run_seconds / window_seconds));
}

Result<std::vector<PhaseStats>> RunNominal(Stack* stack,
                                           const Traffic& traffic,
                                           const Options& options,
                                           Report* report) {
  std::vector<PhaseStats> windows;
  const uint64_t seed = options.seed;
  for (uint64_t w = 0; w < NominalWindows(options.seconds); ++w) {
    auto p = RunValidPhase(stack, traffic, kNominalRate,
                           kWindowRequests / kNominalRate,
                           PhaseSeed(seed, 1000 + w), report);
    if (!p.ok()) return p.status();
    if (!p->valid) {
      report->Invalidate("nominal window: generator lateness p99 " +
                         std::to_string(p->lateness_p99_ms) + " ms");
    }
    windows.push_back(std::move(*p));
  }
  return windows;
}

// Concatenates one per-phase sample over several phases.
std::vector<double> Merged(const std::vector<PhaseStats>& phases,
                           std::vector<double> PhaseStats::*field) {
  std::vector<double> all;
  for (const PhaseStats& p : phases) {
    all.insert(all.end(), (p.*field).begin(), (p.*field).end());
  }
  return all;
}

// Median over windows of each window's p-th latency percentile.
double MedianWindowPercentile(const std::vector<PhaseStats>& windows,
                              double p) {
  std::vector<double> v;
  for (const PhaseStats& w : windows) {
    v.push_back(PercentileOf(w.latency_ms, p).value);
  }
  return Median(v);
}

void AddWindowPercentile(Report* report, const std::string& name,
                         const std::vector<PhaseStats>& windows, double p) {
  const Quantile first = PercentileOf(windows.front().latency_ms, p);
  char note[160];
  std::snprintf(note, sizeof(note),
                "median over %zu windows of p%g (n=%zu, %lld beyond each)",
                windows.size(), p, first.count,
                static_cast<long long>(first.beyond));
  report->Add(name, MedianWindowPercentile(windows, p), Kind::kMeasured,
              note);
}

void AddEndToEnd(const SetupTimes& setup,
                 const std::vector<PhaseStats>& nominal,
                 const Traffic& traffic, double max_rps, size_t rungs,
                 Report* report) {
  int64_t sent = 0;
  int64_t bytes_sent = 0;
  double raw_ok = 0.0;
  double seconds = 0.0;
  for (const PhaseStats& p : nominal) {
    sent += p.sent();
    bytes_sent += p.raw.bytes_sent;
    raw_ok += p.raw_ok_bytes;
    seconds += p.seconds;
  }
  report->Add("setup_s", Median(setup.total), Kind::kMeasured,
              "median of " + std::to_string(setup.total.size()) +
                  " set-ups");
  report->Add("throughput_mb_s", raw_ok / 1e6 / seconds, Kind::kMeasured,
              "raw input bytes answered OK per second at the nominal rate");
  const std::vector<double> server_ms = Merged(nominal, &PhaseStats::server_ms);
  AddPercentile(report, "batch_p50_ms", server_ms, 50);
  AddPercentile(report, "batch_p90_ms", server_ms, 90);
  report->Add("compression_ratio",
              static_cast<double>(sent) * traffic.raw_bytes_per_request /
                  static_cast<double>(bytes_sent),
              Kind::kMeasured, "raw input bytes / Submit frame bytes");
  report->Add("bound_tightness_p50",
              Median(Merged(nominal, &PhaseStats::tightness)),
              Kind::kMeasured,
              "achieved error / predicted bound, reduced-precision answers");
  AddWindowPercentile(report, "req_p50_ms", nominal, 50);
  AddWindowPercentile(report, "req_p99_ms", nominal, 99);
  report->Add("max_rps", max_rps, Kind::kMeasured,
              std::to_string(rungs) + " rungs, p99 <= 20 ms");
  report->Add("peak_rss_mb", PeakRssMb(), Kind::kMeasured, "getrusage");
}

}  // namespace

Status RunWire(const Options& options, Report* report) {
  const DriverCore driver_core;
  const Traffic traffic = MakeTraffic(options);
  SetupTimes setup;
  Stack stack;
  while (MoreSetups(setup, 0.0)) {
    Status st = stack.Stop();
    if (!st.ok()) return st;
    st = StartStack(options, traffic, &stack, &setup);
    if (!st.ok()) return st;
  }
  driver_core.PinDriver();

  auto nominal = RunNominal(&stack, traffic, options, report);
  if (!nominal.ok()) return nominal.status();

  if (!options.trace) {
    uint64_t rung_index = 0;
    Status rung_status;
    const LadderResult ladder = LadderSearch(
        kNominalRate, kLadderFactor, kOverloadRate, kLadderRefinements,
        [&](double rate) {
          Rung rung;
          rung.rate = rate;
          auto p = RunValidPhase(&stack, traffic, rate,
                                 kRungRequests / rate,
                                 PhaseSeed(options.seed, 2000 + rung_index++),
                                 report);
          if (!p.ok()) {
            rung_status = p.status();
            rung.valid = false;
            return rung;
          }
          rung.valid = p->valid;
          rung.passed = RungPasses(*p, rate);
          return rung;
        });
    if (!rung_status.ok()) return rung_status;
    Status st = stack.Stop();
    if (!st.ok()) return st;
    AddEndToEnd(setup, *nominal, traffic, ladder.max_rate,
                ladder.rungs.size(), report);
    return Status::OK();
  }

  // Traced run: the nominal windows again with spans, the same schedules
  // in-process, then overload.
  const double hits0 = RegistryCounter("errorflow.serve.registry.hits");
  const double misses0 = RegistryCounter("errorflow.serve.registry.misses");
  const double dropped0 = RegistryCounter("errorflow.net.dropped_responses");
  auto traced = RunNominal(&stack, traffic, options, report);
  if (!traced.ok()) return traced.status();
  for (const PhaseStats& p : *traced) AddWireSpans(p, "wire.request", report);
  InProcess inproc;
  for (const PhaseStats& p : *nominal) {
    stack.Settle();
    ReplayInProcess(stack.server.get(), traffic, p.due, &inproc, report);
  }
  auto overload =
      RunValidPhase(&stack, traffic, kOverloadRate, kOverloadSeconds,
                    PhaseSeed(options.seed, 3000), report);
  if (!overload.ok()) return overload.status();
  const double hits = RegistryCounter("errorflow.serve.registry.hits") - hits0;
  const double misses =
      RegistryCounter("errorflow.serve.registry.misses") - misses0;
  const double dropped =
      RegistryCounter("errorflow.net.dropped_responses") - dropped0;
  const int64_t variants = stack.server->registry().variant_count();
  Status st = stack.Stop();
  if (!st.ok()) return st;

  AddSetupMetrics(setup, report);
  report->Add("quant.variants", static_cast<double>(variants),
              Kind::kMeasured, "variants resident in the registry");
  report->Add("serve.submit_us", Median(inproc.submit_us), Kind::kMeasured,
              "median SubmitAsync return time");
  AddPercentile(report, "serve.complete_p50_ms", inproc.complete_ms, 50);
  AddPercentile(report, "serve.complete_p99_ms", inproc.complete_ms, 99);
  report->Add("serve.queue_wait_p50_ms", Median(inproc.queue_ms),
              Kind::kMeasured, "InferenceResponse::queue_seconds");
  report->Add("serve.batch_rows_mean",
              inproc.ok == 0 ? 0.0
                             : inproc.batch_rows_sum /
                                   static_cast<double>(inproc.ok),
              Kind::kMeasured, "InferenceResponse::batch_rows");
  const auto replayed = static_cast<double>(inproc.latency_ms.size());
  report->Add("serve.refused_share",
              static_cast<double>(inproc.refused) / replayed,
              Kind::kMeasured, "typed refusals, in-process replay");
  report->Add("serve.registry_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0,
              Kind::kMeasured, "errorflow.serve.registry.hits / leases");
  const std::vector<double> wire_ms =
      Merged(*nominal, &PhaseStats::latency_ms);
  report->Add("net.tax_p50_ms",
              PercentileOf(wire_ms, 50).value -
                  PercentileOf(inproc.latency_ms, 50).value,
              Kind::kMeasured, "wire p50 minus in-process p50, same schedule");
  report->Add("net.tax_p99_ms",
              PercentileOf(wire_ms, 99).value -
                  PercentileOf(inproc.latency_ms, 99).value,
              Kind::kMeasured, "wire p99 minus in-process p99, same schedule");

  std::vector<const PhaseStats*> wire_phases;
  for (const PhaseStats& p : *nominal) wire_phases.push_back(&p);
  for (const PhaseStats& p : *traced) wire_phases.push_back(&p);
  wire_phases.push_back(&*overload);
  int64_t sent = 0, unanswered = 0, not_ok = 0;
  double lateness = 0.0, busy = 0.0;
  for (const PhaseStats* p : wire_phases) {
    sent += p->sent();
    unanswered += p->unanswered;
    not_ok += p->sent() - p->ok + p->violations;
    lateness = std::max(lateness, p->lateness_p99_ms);
    busy = std::max(busy, p->raw.busy_seconds / p->raw.wall_seconds);
  }
  report->Add("net.unanswered_share",
              static_cast<double>(unanswered) / static_cast<double>(sent),
              Kind::kMeasured, "over the nominal and overload wire phases");
  report->Add("net.dropped_responses", dropped, Kind::kMeasured,
              "errorflow.net.dropped_responses");
  report->Add("driver.lateness_p99_ms", lateness, Kind::kMeasured,
              "worst phase");
  report->Add("driver.busy_share", busy, Kind::kMeasured,
              "worst phase: time outside epoll waits");
  report->Add("trace.overhead_ms",
              MedianWindowPercentile(*traced, 50) -
                  MedianWindowPercentile(*nominal, 50),
              Kind::kMeasured, "traced minus untraced nominal wire p50");
  not_ok += static_cast<int64_t>(replayed) - inproc.ok + inproc.violations;
  report->Add("failed_share",
              static_cast<double>(not_ok) /
                  (static_cast<double>(sent) + replayed),
              Kind::kMeasured,
              "errors, refusals, unanswered and bound violations / sent");
  if (overload->valid) {
    report->Add("overload_goodput_rps",
                static_cast<double>(overload->ok_in_window) /
                    overload->seconds,
                Kind::kMeasured, "OK answers per second while 20k/s offered");
  } else {
    report->Add("overload_goodput_rps", 0.0, Kind::kMeasured,
                "phase invalid: generator lateness p99 " +
                    std::to_string(overload->lateness_p99_ms) + " ms");
  }
  return Status::OK();
}

}  // namespace perfbench
