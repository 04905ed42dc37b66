#include "core/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#if defined(__unix__)
#include <unistd.h>
#endif

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

namespace {

/// This host's physical memory in bytes; 0 when the platform cannot tell.
double physical_memory_bytes() noexcept {
#if defined(__unix__)
  const long pages = ::sysconf(_SC_PHYS_PAGES);
  const long page_size = ::sysconf(_SC_PAGESIZE);
  if (pages > 0 && page_size > 0) {
    return static_cast<double>(pages) * static_cast<double>(page_size);
  }
#endif
  return 0.0;
}

}  // namespace

std::string memory_bound_error(double bytes, const std::string& what) {
  const double host = physical_memory_bytes();
  if (host <= 0.0 || bytes <= host) return {};
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  std::ostringstream why;
  why.precision(3);
  why << what << " need " << bytes / kGiB << " GiB, more than this host's "
      << host / kGiB << " GiB of memory";
  return why.str();
}

}  // namespace knots
