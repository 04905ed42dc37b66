// Strict number parsing for text inputs, and the host-memory bound on what
// they may ask for: knots_ctl flags and scenario files share these, so every
// input path accepts and rejects the same spellings and sizes.
#pragma once

#include <optional>
#include <string>

namespace knots {

/// Full-consumption base-10 integer; rejects "", "12x" and values outside
/// long long (ERANGE) rather than saturating them.
std::optional<long long> parse_int(const std::string& s);

/// Full-consumption floating-point number; rejects "", "1.5x" and every
/// non-finite value ("nan", "inf", or a magnitude past double).
std::optional<double> parse_double(const std::string& s);

/// Empty when an up-front allocation of `bytes` fits this host's physical
/// memory (sysconf page count × page size), or when that is unknown;
/// otherwise a diagnostic naming the allocation `what`, e.g. "telemetry rings
/// need 3.1e+06 GiB, more than this host's 15.6 GiB of memory".
std::string memory_bound_error(double bytes, const std::string& what);

}  // namespace knots
