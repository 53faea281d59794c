#ifndef ERRORFLOW_CORE_REPORT_H_
#define ERRORFLOW_CORE_REPORT_H_

#include <string>

#include "core/error_bound.h"

namespace errorflow {
namespace core {

/// \brief Human-readable multi-line report of a model's error-flow
/// profile: per-layer spectral norms, dims, Table-I step sizes, the
/// per-format quantization bounds, and the compression gain. Used by the
/// CLI and handy in notebooks/logs. Per-layer shares of the bound come
/// from ErrorFlowAnalysis::Attribution().
std::string ProfileReport(const ErrorFlowAnalysis& analysis);

}  // namespace core
}  // namespace errorflow

#endif  // ERRORFLOW_CORE_REPORT_H_
