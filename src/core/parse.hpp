// Strict number parsing for text inputs: knots_ctl flags and scenario files
// share these, so every input path accepts and rejects the same spellings.
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

}  // namespace knots
