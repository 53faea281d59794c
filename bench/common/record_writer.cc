#include "common/record_writer.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <thread>

#include "obs/json.h"
#include "tensor/kernels.h"

namespace errorflow {
namespace bench {

namespace {

std::string ObjectJson(const Fields& fields) {
  std::string out = "{";
  for (const auto& [name, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += obs::JsonString(name) + ": " + value.json();
  }
  return out + "}";
}

}  // namespace

std::string HostIsaFlags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line) && line.rfind("flags", 0) != 0) continue;
  std::istringstream words(line.substr(line.find(':') + 1));
  const std::set<std::string> present{
      std::istream_iterator<std::string>(words), {}};
  std::string flags;
  for (const char* f : {"avx2", "fma", "avx512f", "f16c", "amx_tile"}) {
    if (present.count(f) == 0) continue;
    if (!flags.empty()) flags += ' ';
    flags += f;
  }
  return flags;
}

Host Host::Current() {
  return {std::thread::hardware_concurrency(), HostIsaFlags(),
          tensor::KernelDescription()};
}

JsonValue::JsonValue(const char* s) : json_(obs::JsonString(s)) {}
JsonValue::JsonValue(const std::string& s) : json_(obs::JsonString(s)) {}
JsonValue::JsonValue(double v) : json_(obs::JsonNumber(v)) {}
JsonValue::JsonValue(bool v) : json_(v ? "true" : "false") {}

RecordWriter::RecordWriter(std::string bench, const Fields& config)
    : bench_(std::move(bench)), config_(ObjectJson(config)) {}

void RecordWriter::Add(const Fields& key, const std::string& metric,
                       double value, const std::string& unit,
                       Source source) {
  records_ += records_.empty() ? "\n    " : ",\n    ";
  records_ +=
      "{\"key\": " + ObjectJson(key) +
      ", \"metric\": " + obs::JsonString(metric) +
      ", \"value\": " + obs::JsonNumber(value) +
      ", \"unit\": " + obs::JsonString(unit) + ", \"source\": \"" +
      (source == Source::kMeasured ? "measured" : "modeled") + "\"}";
}

std::string RecordWriter::ToJson(const Host& host) const {
  return "{\n  \"bench\": " + obs::JsonString(bench_) +
         ",\n  \"host\": {\"cores\": " + std::to_string(host.cores) +
         ", \"isa\": " + obs::JsonString(host.isa) +
         ", \"kernels\": " + obs::JsonString(host.kernels) +
         "},\n  \"config\": " + config_ + ",\n  \"records\": [" + records_ +
         "\n  ]\n}\n";
}

Status RecordWriter::Write(const std::string& path) const {
  std::ofstream out(path);
  out << ToJson(Host::Current());
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return Status::IOError("cannot write " + path);
  }
  std::printf("wrote %s\n", path.c_str());
  return Status::OK();
}

}  // namespace bench
}  // namespace errorflow
