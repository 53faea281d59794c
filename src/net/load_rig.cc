#include "net/load_rig.h"

#include <sys/epoll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "net/framed_conn.h"
#include "net/socket.h"
#include "obs/log.h"
#include "util/random.h"
#include "util/string_util.h"

namespace errorflow {
namespace net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Arrivals beyond this many unanswered requests are dropped rig-side
/// (counted in `overload_dropped`) instead of growing memory without bound
/// when the server is far past saturation.
constexpr size_t kMaxOutstanding = 100000;
/// After the last phase, how long the loop keeps collecting late
/// responses before counting the remainder as unanswered.
constexpr std::chrono::milliseconds kDrainTimeout{3000};
/// epoll tag of the in-process completion eventfd; connections are tagged
/// with their index.
constexpr uint64_t kCompletionTag = ~uint64_t{0};

/// One in-process completion: the request id, its outcome and when the
/// `SubmitAsync` callback (on a scheduler thread) stamped it.
struct Done {
  uint64_t id;
  StatusCode code;
  SteadyClock::time_point at;
};

double MsSince(SteadyClock::time_point start, SteadyClock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::string LoadStats::Summary() const {
  std::string out;
  out += util::StrFormat("offered %.1f req/s, achieved %.1f req/s over %.2fs\n",
                         offered_rps, achieved_rps, wall_seconds);
  out += util::StrFormat(
      "submitted %llu  completed %llu  rejected %llu (backpressure %llu, "
      "deadline %llu)\n",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(backpressure),
      static_cast<unsigned long long>(deadline_shed));
  out += util::StrFormat(
      "unanswered %llu  overload-dropped %llu  connect-failures %llu  "
      "conn-errors %llu\n",
      static_cast<unsigned long long>(unanswered),
      static_cast<unsigned long long>(overload_dropped),
      static_cast<unsigned long long>(connect_failures),
      static_cast<unsigned long long>(connection_errors));
  out += util::StrFormat(
      "latency ms: p50 %.3f  p99 %.3f  mean %.3f  max %.3f\n",
      latency_p50_ms, latency_p99_ms, latency_mean_ms, latency_max_ms);
  out += util::StrFormat(
      "rig: lateness ms p50 %.3f  p99 %.3f, busy %.1f%%\n", lateness_p50_ms,
      lateness_p99_ms, busy_share * 100.0);
  return out;
}

Result<LoadStats> RunLoad(const LoadConfig& config) {
  const bool in_process = config.server != nullptr;
  if (!in_process && (config.port == 0 || config.connections < 1)) {
    return Status::InvalidArgument(
        "net: socket load needs a concrete port and >= 1 connection");
  }
  if (config.phases.empty() || config.requests.empty()) {
    return Status::InvalidArgument(
        "net: load rig needs >= 1 phase and >= 1 request template");
  }
  for (const LoadPhase& phase : config.phases) {
    if (phase.seconds <= 0.0 || phase.rate <= 0.0) {
      return Status::InvalidArgument(
          "net: load phase seconds and rate must be positive");
    }
  }

  // The full Poisson arrival schedule, as offsets from the run start.
  // Precomputing keeps the hot loop allocation-free and makes the offered
  // load independent of how fast the engine drains events.
  std::vector<double> arrivals;
  double total_phase_seconds = 0.0;
  {
    util::Rng rng(config.seed);
    double t = 0.0;
    for (const LoadPhase& phase : config.phases) {
      const double phase_end = total_phase_seconds + phase.seconds;
      if (t < total_phase_seconds) t = total_phase_seconds;
      while (true) {
        // Exponential inter-arrival gap; 1-u keeps log() off exact zero.
        t += -std::log(1.0 - rng.UniformDouble()) / phase.rate;
        if (t >= phase_end) break;
        arrivals.push_back(t);
      }
      total_phase_seconds = phase_end;
    }
  }

  LoadStats stats;
  stats.offered_rps =
      static_cast<double>(arrivals.size()) / total_phase_seconds;

  OwnedFd epoll_fd(epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd.valid()) {
    return Status::IOError(util::StrFormat(
        "net: epoll_create1 failed: %s", std::strerror(errno)));
  }
  // Socket transport state: the connections, and each template's payload
  // encoded once so that per arrival only the 18-byte header (with a fresh
  // request id) is re-framed around it.
  std::vector<FramedConn> conns;
  std::vector<std::string> payloads;
  size_t alive_count = 0;
  // In-process transport state. Shared with every callback: one that fires
  // after the rig returned (its request counted unanswered) still lands
  // harmlessly.
  std::shared_ptr<EventQueue<Done>> completions;
  if (in_process) {
    completions = std::make_shared<EventQueue<Done>>();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kCompletionTag;
    if (!completions->Open() ||
        epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, completions->fd(), &ev) !=
            0) {
      return Status::IOError(util::StrFormat(
          "net: completion eventfd failed: %s", std::strerror(errno)));
    }
  } else {
    conns.resize(static_cast<size_t>(config.connections));
    for (size_t i = 0; i < conns.size(); ++i) {
      auto fd = ConnectTcp(config.host, config.port,
                           std::chrono::milliseconds(5000));
      if (!fd.ok()) {
        stats.connect_failures += 1;
        continue;
      }
      EF_RETURN_IF_ERROR(SetNonBlocking(fd->get()));
      conns[i] = FramedConn(std::move(*fd));
      if (!conns[i].Watch(epoll_fd.get(), i)) {
        stats.connect_failures += 1;
        conns[i] = FramedConn();
        continue;
      }
      alive_count += 1;
    }
    if (alive_count == 0) {
      return Status::IOError("net: load rig could not open any connection");
    }
    for (const SubmitFrame& request : config.requests) {
      payloads.push_back(EncodeSubmit(0, request).substr(kFrameHeaderBytes));
    }
  }

  const auto close_conn = [&](size_t idx) {
    if (!conns[idx].valid()) return;
    conns[idx].Close();
    alive_count -= 1;
    stats.connection_errors += 1;
  };
  const auto flush_conn = [&](size_t idx) {
    if (conns[idx].Flush().closed) close_conn(idx);
  };

  std::unordered_map<uint64_t, SteadyClock::time_point> outstanding;
  outstanding.reserve(1024);
  std::vector<double> latencies_ms;
  latencies_ms.reserve(arrivals.size());
  std::vector<double> lateness_ms;
  lateness_ms.reserve(arrivals.size());
  size_t next_conn = 0;
  size_t arrival_idx = 0;
  const util::DecodeLimits limits = util::DecodeLimits::Default();

  // Answers one outstanding request, from either transport. Latency runs
  // from the *scheduled* arrival: a send stalled behind a full socket
  // buffer or a slow admission still charges the server for the wait.
  const auto resolve = [&](uint64_t id, StatusCode code,
                           SteadyClock::time_point at) {
    auto it = outstanding.find(id);
    if (it == outstanding.end()) return;
    if (code == StatusCode::kOk) {
      latencies_ms.push_back(MsSince(it->second, at));
      stats.completed += 1;
    } else {
      stats.rejected += 1;
      if (code == StatusCode::kResourceExhausted) {
        stats.backpressure += 1;
      } else if (code == StatusCode::kDeadlineExceeded) {
        stats.deadline_shed += 1;
      }
    }
    outstanding.erase(it);
  };

  const FramedConn::FrameFn handle_frame = [&](const FrameHeader& header,
                                               const char* payload) {
    if (header.type == FrameType::kResponse) {
      resolve(header.request_id, StatusCode::kOk, SteadyClock::now());
    } else if (header.type == FrameType::kError) {
      EF_ASSIGN_OR_RETURN(ErrorFrame err,
                          DecodeError(payload, header.payload_len, limits));
      // Request id 0 is a connection-scoped refusal; the close follows.
      if (header.request_id != 0) {
        resolve(header.request_id, static_cast<StatusCode>(err.code),
                SteadyClock::now());
      }
    } else if (header.type == FrameType::kSubmit) {
      return Status::Corruption("net: rig received a Submit frame");
    }
    return Status::OK();  // Ping/Pong: liveness only.
  };

  // Sends request `id`, built from the next template in turn, on the
  // configured transport (the socket one uses live connection `next_conn`).
  const auto send = [&](uint64_t id) {
    const size_t tmpl = (id - 1) % config.requests.size();
    if (in_process) {
      Status status = config.server->SubmitAsync(
          ToInferenceRequest(config.requests[tmpl]),
          [completions, id](serve::InferenceResponse&& response) {
            completions->Push(
                {id, response.status.code(), SteadyClock::now()});
          });
      // A synchronous rejection is typed, exactly like an Error frame.
      if (!status.ok()) resolve(id, status.code(), SteadyClock::now());
      return;
    }
    conns[next_conn].Queue(
        EncodeFrame(FrameType::kSubmit, id, payloads[tmpl]));
    flush_conn(next_conn);
    next_conn = (next_conn + 1) % conns.size();
  };

  const SteadyClock::time_point t0 = SteadyClock::now();
  SteadyClock::duration waited{};
  SteadyClock::time_point drain_deadline{};
  std::vector<epoll_event> events(256);
  while (in_process || alive_count > 0) {
    const SteadyClock::time_point now = SteadyClock::now();
    const double elapsed =
        std::chrono::duration<double>(now - t0).count();

    // Fire every arrival whose scheduled time has passed.
    while (arrival_idx < arrivals.size() &&
           arrivals[arrival_idx] <= elapsed) {
      if (outstanding.size() >= kMaxOutstanding) {
        stats.overload_dropped += 1;
        arrival_idx += 1;
        continue;
      }
      if (!in_process) {
        size_t tries = 0;
        while (!conns[next_conn].valid() && tries < conns.size()) {
          next_conn = (next_conn + 1) % conns.size();
          tries += 1;
        }
        if (!conns[next_conn].valid()) break;  // alive_count check exits.
      }
      const SteadyClock::time_point scheduled =
          t0 + std::chrono::duration_cast<SteadyClock::duration>(
                   std::chrono::duration<double>(arrivals[arrival_idx]));
      const uint64_t id = ++stats.submitted;  // Id 0 is connection-scoped.
      outstanding.emplace(id, scheduled);
      send(id);
      // Stamped once the send returns, so in-process admission (which
      // runs inside send) counts toward this request's own lateness.
      lateness_ms.push_back(MsSince(scheduled, SteadyClock::now()));
      arrival_idx += 1;
    }

    if (arrival_idx >= arrivals.size()) {
      if (drain_deadline == SteadyClock::time_point{}) {
        drain_deadline = now + kDrainTimeout;
      }
      if (outstanding.empty() || now >= drain_deadline) break;
    }

    int timeout_ms = 20;
    if (arrival_idx < arrivals.size()) {
      const double until_next = arrivals[arrival_idx] - elapsed;
      timeout_ms = std::clamp(
          static_cast<int>(std::ceil(until_next * 1000.0)), 0, 20);
    }
    const SteadyClock::time_point wait_start = SteadyClock::now();
    const int n = epoll_wait(epoll_fd.get(), events.data(),
                             static_cast<int>(events.size()), timeout_ms);
    waited += SteadyClock::now() - wait_start;
    if (n < 0 && errno != EINTR) {
      return Status::IOError(util::StrFormat(
          "net: epoll_wait failed: %s", std::strerror(errno)));
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kCompletionTag) {
        for (const Done& done : completions->Take()) {
          resolve(done.id, done.code, done.at);
        }
        continue;
      }
      const size_t idx = static_cast<size_t>(events[i].data.u64);
      if (!conns[idx].valid()) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(idx);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        const FramedConn::Transfer in =
            conns[idx].ReadFrames(limits, handle_frame);
        if (in.closed || !in.framing.ok()) close_conn(idx);
      }
      if (conns[idx].valid() && (events[i].events & EPOLLOUT)) {
        flush_conn(idx);
      }
    }
  }

  stats.wall_seconds =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  stats.unanswered = outstanding.size();
  if (stats.wall_seconds > 0.0) {
    stats.achieved_rps =
        static_cast<double>(stats.completed) / stats.wall_seconds;
    stats.busy_share =
        1.0 - std::chrono::duration<double>(waited).count() /
                  stats.wall_seconds;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  stats.latency_p50_ms = PercentileOfSorted(latencies_ms, 50.0);
  stats.latency_p99_ms = PercentileOfSorted(latencies_ms, 99.0);
  if (!latencies_ms.empty()) {
    stats.latency_max_ms = latencies_ms.back();
    stats.latency_mean_ms =
        std::accumulate(latencies_ms.begin(), latencies_ms.end(), 0.0) /
        static_cast<double>(latencies_ms.size());
  }
  std::sort(lateness_ms.begin(), lateness_ms.end());
  stats.lateness_p50_ms = PercentileOfSorted(lateness_ms, 50.0);
  stats.lateness_p99_ms = PercentileOfSorted(lateness_ms, 99.0);
  obs::Logf(obs::LogLevel::kInfo, "net: load rig done (%s)\n%s",
            in_process ? "in-process" : "socket", stats.Summary().c_str());
  return stats;
}

}  // namespace net
}  // namespace errorflow
