#include "cluster/profile_store.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "stats/correlation.hpp"

namespace knots::cluster {

namespace {
constexpr double kEma = 0.3;  ///< Weight of the newest run.

void ema_merge(std::vector<double>& acc, const std::vector<double>& next) {
  if (acc.empty()) {
    acc = next;
    return;
  }
  KNOTS_CHECK(acc.size() == next.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = (1.0 - kEma) * acc[i] + kEma * next[i];
  }
}
}  // namespace

ImageId ProfileStore::intern(const std::string& key) {
  const ImageId next{static_cast<std::int32_t>(profiles_.size())};
  const auto [it, added] = ids_.try_emplace(key, next);
  if (added) profiles_.emplace_back();
  return it->second;
}

void ProfileStore::record_run(ImageId image, double mean_sm, double peak_sm,
                              const std::vector<double>& memory_signature) {
  KNOTS_CHECK(image.valid() &&
              static_cast<std::size_t>(image.value) < profiles_.size());
  auto& prof = profiles_[static_cast<std::size_t>(image.value)];
  if (prof.observed_runs == 0) {
    prof.mean_sm = mean_sm;
    prof.peak_sm = peak_sm;
    prof.memory_signature = memory_signature;
  } else {
    prof.mean_sm = (1.0 - kEma) * prof.mean_sm + kEma * mean_sm;
    prof.peak_sm = std::max(prof.peak_sm, peak_sm);
    ema_merge(prof.memory_signature, memory_signature);
  }
  // Runs complete far less often than schedulers read percentiles and
  // correlations, so the sorted shadow and the ranks are refreshed here
  // rather than per query.
  prof.memory_signature_sorted = prof.memory_signature;
  std::sort(prof.memory_signature_sorted.begin(),
            prof.memory_signature_sorted.end());
  prof.memory_signature_ranks = stats::fractional_ranks(prof.memory_signature);
  ++prof.observed_runs;
}

const ImageProfile* ProfileStore::find(ImageId image) const {
  KNOTS_CHECK(image.valid() &&
              static_cast<std::size_t>(image.value) < profiles_.size());
  const auto& prof = profiles_[static_cast<std::size_t>(image.value)];
  return prof.observed_runs == 0 ? nullptr : &prof;
}

std::optional<double> ProfileStore::memory_correlation(ImageId a,
                                                       ImageId b) const {
  const ImageProfile* pa = find(a);
  const ImageProfile* pb = find(b);
  if (pa == nullptr || pb == nullptr) return std::nullopt;
  if (pa->memory_signature.size() != pb->memory_signature.size()) {
    return std::nullopt;
  }
  return stats::pearson(pa->memory_signature_ranks,
                        pb->memory_signature_ranks);
}

}  // namespace knots::cluster
