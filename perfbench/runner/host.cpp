#include "runner/host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <limits>
#include <thread>

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

void write_number(std::ostream& os, double value) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
}

void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

HostStamp host_stamp() {
  HostStamp stamp;
  stamp.cpu_model = cpu_model();
  stamp.cores = std::thread::hardware_concurrency();
#if defined(__clang__)
  stamp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  stamp.compiler = "gcc " __VERSION__;
#else
  stamp.compiler = "unknown";
#endif
  stamp.build_type = PERFBENCH_BUILD_TYPE;
  stamp.knots_trace = PERFBENCH_KNOTS_TRACE != 0;
#ifdef NDEBUG
  stamp.optimised = true;
#endif
  return stamp;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_probe_s() {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint64_t kChunkSteps = std::uint64_t{1} << 21;
  static volatile std::uint64_t sink = 1;
  std::uint64_t x = sink;
  std::array<double, 9> chunks{};
  for (double& chunk : chunks) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kChunkSteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    chunk = std::chrono::duration<double>(Clock::now() - start).count();
  }
  sink = x;
  std::nth_element(chunks.begin(), chunks.begin() + chunks.size() / 2,
                   chunks.end());
  return chunks[chunks.size() / 2];
}

std::ostringstream& JsonObject::next(std::string_view key) {
  if (!first_) body_ << ',';
  first_ = false;
  write_string(body_, key);
  body_ << ':';
  return body_;
}

JsonObject& JsonObject::field(std::string_view key, double value) {
  write_number(next(key), value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, std::uint64_t value) {
  next(key) << value;
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, bool value) {
  next(key) << (value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, std::string_view value) {
  write_string(next(key), value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view key,
                              const std::vector<double>& values) {
  std::ostringstream& os = next(key);
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ',';
    write_number(os, values[i]);
  }
  os << ']';
  return *this;
}

JsonObject& JsonObject::field(std::string_view key,
                              const std::vector<std::string>& values) {
  std::ostringstream& os = next(key);
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ',';
    write_string(os, values[i]);
  }
  os << ']';
  return *this;
}

JsonObject& JsonObject::raw(std::string_view key, std::string_view json) {
  next(key) << json;
  return *this;
}

}  // namespace perfbench
