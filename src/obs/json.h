#ifndef ERRORFLOW_OBS_JSON_H_
#define ERRORFLOW_OBS_JSON_H_

#include <string>
#include <string_view>

namespace errorflow {
namespace obs {

/// `s` as a JSON string literal: quoted, with `"`, `\` and every byte
/// below 0x20 escaped (\n, \r and \t by name, the rest as \u00XX).
/// Other bytes pass through, so UTF-8 stays UTF-8.
std::string JsonString(std::string_view s);

/// `v` as a JSON number: `%g` when that round-trips, else `%.17g`. JSON has
/// no NaN/Infinity literals, so non-finite values (the NaN min/max of an
/// empty histogram) become null.
std::string JsonNumber(double v);

}  // namespace obs
}  // namespace errorflow

#endif  // ERRORFLOW_OBS_JSON_H_
