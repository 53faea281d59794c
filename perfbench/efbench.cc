// The benchmark binary: one workload per process, end-to-end metrics with
// tracing off (--trace 0) or per-layer metrics from a traced run
// (--trace 1). The last line of standard output is the JSON result.
//
//   efbench --prepare --models DIR
//   efbench --workload insitu-h2|archive-eurosat|wire-h2 --seed N
//           --seconds S --trace 0|1 --models DIR --out DIR [--source-rev R]
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "bench.h"
#include "tasks/tasks.h"
#include "tensor/kernels.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  /// Printed by traced runs (per-layer) or untraced runs (end to end).
  bool traced;
  /// Families that print it: bit 0 pipelines, bit 1 wire.
  unsigned families;
};

constexpr unsigned kPipe = 1;
constexpr unsigned kWire = 2;
constexpr unsigned kBoth = kPipe | kWire;

// The order is the print order. BENCHMARK.json lists the pipeline
// family's metrics: its end_to_end are the untraced kPipe rows and its
// per_layer the traced kPipe rows.
constexpr MetricSpec kMetrics[] = {
    {"setup_s", "s", false, kBoth},
    {"throughput_mb_s", "MB/s", false, kBoth},
    {"batch_p50_ms", "ms", false, kBoth},
    {"batch_p90_ms", "ms", false, kBoth},
    {"compression_ratio", "x", false, kBoth},
    {"bound_tightness_p50", "ratio", false, kBoth},
    {"req_p50_ms", "ms", false, kWire},
    {"req_p99_ms", "ms", false, kWire},
    {"max_rps", "req/s", false, kWire},
    {"peak_rss_mb", "MB", false, kBoth},
    {"core.plan_us", "us", true, kPipe},
    {"core.run_self_ms", "ms", true, kPipe},
    {"compress.encode_ms", "ms", true, kPipe},
    {"compress.encode_mb_s", "MB/s", true, kPipe},
    {"compress.encode_share", "ratio", true, kPipe},
    {"compress.decode_ms", "ms", true, kPipe},
    {"compress.decode_mb_s", "MB/s", true, kPipe},
    {"compress.decode_share", "ratio", true, kPipe},
    {"compress.bytes_out", "bytes", true, kPipe},
    {"io.write_us", "us", true, kPipe},
    {"io.read_us", "us", true, kPipe},
    {"nn.forward_ms", "ms", true, kPipe},
    {"nn.forward_gflop_s", "GFLOP/s", true, kPipe},
    {"nn.forward_share", "ratio", true, kPipe},
    {"nn.reference_ms", "ms", true, kPipe},
    {"quant.materialize_ms", "ms", true, kBoth},
    {"quant.variants", "count", true, kBoth},
    {"serve.submit_us", "us", true, kWire},
    {"serve.complete_p50_ms", "ms", true, kWire},
    {"serve.complete_p99_ms", "ms", true, kWire},
    {"serve.queue_wait_p50_ms", "ms", true, kWire},
    {"serve.batch_rows_mean", "rows", true, kWire},
    {"serve.refused_share", "ratio", true, kWire},
    {"serve.registry_hit_ratio", "ratio", true, kWire},
    {"net.tax_p50_ms", "ms", true, kWire},
    {"net.tax_p99_ms", "ms", true, kWire},
    {"net.unanswered_share", "ratio", true, kWire},
    {"net.dropped_responses", "count", true, kWire},
    {"driver.lateness_p99_ms", "ms", true, kWire},
    {"driver.busy_share", "ratio", true, kWire},
    {"setup.model_load_s", "s", true, kBoth},
    {"setup.profile_s", "s", true, kBoth},
    {"setup.server_start_s", "s", true, kWire},
    {"trace.overhead_ms", "ms", true, kBoth},
    {"failed_share", "ratio", true, kBoth},
    {"overload_goodput_rps", "req/s", true, kWire},
};

const char* UnitOf(const std::string& name) {
  for (const MetricSpec& m : kMetrics) {
    if (name == m.name) return m.unit;
  }
  return nullptr;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// First "model name" line and the ISA flags that matter to the kernels.
void ReadCpuInfo(std::string* model, std::string* flags) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::set<std::string> present;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0 &&
        model->empty()) {
      *model = value;
    } else if (key == "flags" && present.empty()) {
      std::istringstream words(value);
      std::string w;
      while (words >> w) present.insert(w);
    }
  }
  for (const char* f : {"avx2", "fma", "avx512f", "f16c", "amx_tile"}) {
    if (present.count(f) != 0) {
      if (!flags->empty()) *flags += ' ';
      *flags += f;
    }
  }
}

int Prepare(const Options& options) {
  for (auto kind : {errorflow::tasks::TaskKind::kH2Combustion,
                    errorflow::tasks::TaskKind::kEuroSat}) {
    const errorflow::tasks::TrainedTask task = errorflow::tasks::GetTask(
        kind, errorflow::tasks::Regularization::kPsn, kModelSeed,
        options.models_dir);
    std::printf("model %s ready\n", task.name.c_str());
  }
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "efbench: %s\nusage: efbench --prepare --models DIR\n"
               "       efbench --workload insitu-h2|archive-eurosat|wire-h2 "
               "--seed N --seconds S --trace 0|1 --models DIR --out DIR "
               "[--source-rev R]\n",
               why);
  return 2;
}

}  // namespace

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

void Report::Add(const std::string& name, double value, Kind kind,
                 std::string note) {
  const char* unit = UnitOf(name);
  if (unit == nullptr) {
    problems_.push_back("unknown metric " + name);
    return;
  }
  metrics_.push_back({name, value, unit, kind, std::move(note)});
}

void Report::Check(bool ok, const std::string& what) {
  attempted_ += 1;
  if (ok) return;
  failed_ += 1;
  if (problems_.size() < 20) problems_.push_back("check failed: " + what);
}

void Report::Invalidate(const std::string& why) {
  valid_ = false;
  problems_.push_back("invalid: " + why);
}

size_t Report::AddSpan(const std::string& name, int64_t parent,
                       double start, double end) {
  spans_.push_back(
      {name, static_cast<int64_t>(spans_.size()), parent, start, end});
  return spans_.size() - 1;
}

void AddPercentile(Report* report, const std::string& name,
                   const std::vector<double>& samples, double p) {
  const Quantile q = PercentileOf(samples, p);
  char note[160];
  std::snprintf(note, sizeof(note), "p%g of n=%zu, %lld beyond%s", p, q.count,
                static_cast<long long>(q.beyond),
                q.supported ? "" : " (under-sampled: fewer than 10 beyond)");
  report->Add(name, q.value, Kind::kMeasured, note);
}

bool MoreSetups(const SetupTimes& setup, double min_seconds) {
  double spent = 0.0;
  for (double t : setup.total) spent += t;
  return setup.total.size() < kSetupRepeats || spent < min_seconds;
}

void AddSetupMetrics(const SetupTimes& setup, Report* report) {
  const auto add = [&](const char* name, const std::vector<double>& v) {
    if (v.empty()) return;
    report->Add(name, Median(v), Kind::kMeasured,
                "median of " + std::to_string(v.size()) + " set-ups");
  };
  add("setup.model_load_s", setup.model_load);
  add("setup.profile_s", setup.profile);
  add("setup.server_start_s", setup.server_start);
  report->Add("quant.materialize_ms", Median(setup.materialize) * 1e3,
              Kind::kMeasured, "all variants the workload uses, per set-up");
}

int Report::Print(bool wire, bool trace) const {
  std::vector<std::string> problems = problems_;
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : metrics_) {
    if (!by_name.emplace(m.name, &m).second) {
      problems.push_back("metric reported twice: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      problems.push_back("metric not finite: " + m.name);
    }
  }
  std::vector<MetricSpec> wanted;
  for (const MetricSpec& m : kMetrics) {
    if (m.traced == trace && (m.families & (wire ? kWire : kPipe)) != 0) {
      wanted.push_back(m);
    }
  }
  if (by_name.size() != wanted.size()) {
    problems.push_back("metric set does not match the workload's table");
  }

  std::printf("%-26s %18s  %-8s %-9s %s\n", "metric", "value", "unit", "kind",
              "note");
  std::string json;
  for (const MetricSpec& spec : wanted) {
    auto it = by_name.find(spec.name);
    if (it == by_name.end()) {
      problems.push_back(std::string("metric missing: ") + spec.name);
      continue;
    }
    const Metric& m = *it->second;
    std::printf("%-26s %18.6f  %-8s %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.kind == Kind::kMeasured ? "measured" : "computed",
                m.note.c_str());
    if (!json.empty()) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " +
            FormatNumber(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const std::string& p : problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed_ == 0 && valid_;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(attempted_),
      static_cast<long long>(failed_), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void RunOnOneCore() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      break;
    }
  }
  errorflow::tensor::SetKernelThreads(1);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

std::string ProvenanceJson(const Options& options) {
  std::string model;
  std::string flags;
  ReadCpuInfo(&model, &flags);
  std::string out = "{";
  out += "\"cores\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": \"" + JsonEscape(model) + "\"";
  out += ", \"isa\": \"" + flags + "\"";
  out += ", \"kernels\": \"" +
         JsonEscape(errorflow::tensor::KernelDescription()) + "\"";
  out += ", \"source_rev\": \"" + JsonEscape(options.source_rev) + "\"";
  out += ", \"workload\": \"" + JsonEscape(options.workload) + "\"";
  out += ", \"workload_seed\": " + std::to_string(options.seed);
  out += ", \"model_seed\": " + std::to_string(kModelSeed);
  out += ", \"seconds\": " + FormatNumber(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  out += "}";
  return out;
}

Status WriteTrace(const Options& options, const Report& report) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) return Status::IOError("cannot create " + options.out_dir);
  const std::string path = options.out_dir + "/" + options.workload +
                           ".seed" + std::to_string(options.seed) +
                           ".trace.json";
  std::ofstream out(path);
  out << "{\"provenance\": " << ProvenanceJson(options)
      << ",\n\"traceEvents\": [";
  const std::vector<Span>& spans = report.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << JsonEscape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << FormatNumber(s.start * 1e6)
        << ", \"dur\": " << FormatNumber((s.end - s.start) * 1e6)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  return Status::OK();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  perfbench::Now();  // Fix the clock origin at process start.
  Options options;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      prepare = true;
      continue;
    }
    if (i + 1 >= argc) return perfbench::Usage("missing flag value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--models") {
      options.models_dir = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--source-rev") {
      options.source_rev = value;
    } else {
      return perfbench::Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.models_dir.empty()) return perfbench::Usage("--models required");
  if (prepare) return perfbench::Prepare(options);
  if (!(options.seconds > 0.0)) return perfbench::Usage("bad --seconds");
  if (options.out_dir.empty()) return perfbench::Usage("--out required");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  perfbench::Report report;
  errorflow::Status st;
  if (options.workload == "insitu-h2") {
    st = perfbench::RunInsitu(options, &report);
  } else if (options.workload == "archive-eurosat") {
    st = perfbench::RunArchive(options, &report);
  } else if (options.workload == "wire-h2") {
    st = perfbench::RunWire(options, &report);
  } else {
    return perfbench::Usage(("unknown workload " + options.workload).c_str());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "efbench: %s\n", st.ToString().c_str());
    return 1;
  }
  // After the run, so the kernel description shows the thread count the
  // workload ran with.
  std::printf("provenance %s\n", perfbench::ProvenanceJson(options).c_str());
  if (options.trace) {
    st = perfbench::WriteTrace(options, report);
    if (!st.ok()) {
      std::fprintf(stderr, "efbench: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  return report.Print(options.workload == "wire-h2", options.trace);
}
