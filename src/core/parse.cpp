#include "core/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace knots {

std::optional<long long> parse_int(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return std::nullopt;
  return v;
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace knots
