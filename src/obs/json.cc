#include "obs/json.h"

#include <cmath>
#include <cstdio>

namespace errorflow {
namespace obs {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += {'\\', c};
    } else if (c == '\n' || c == '\r' || c == '\t') {
      out += {'\\', c == '\n' ? 'n' : c == '\r' ? 'r' : 't'};
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(u));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  // Trim to %g when it round-trips: keeps the export readable.
  char shorter[64];
  std::snprintf(shorter, sizeof(shorter), "%g", v);
  double parsed = 0.0;
  if (std::sscanf(shorter, "%lf", &parsed) == 1 && parsed == v) {
    return shorter;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace obs
}  // namespace errorflow
