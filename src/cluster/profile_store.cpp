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

void ProfileStore::record_run(const std::string& image, double p80_memory_mb,
                              double peak_memory_mb, double mean_sm,
                              double peak_sm,
                              const std::vector<double>& memory_signature,
                              const std::vector<double>& sm_signature) {
  auto& prof = profiles_[image];
  if (prof.observed_runs == 0) {
    // Only a new image changes what find() returns: later runs update the
    // profile in place, behind the same pointer.
    ++gen_;
    prof.image = image;
    prof.p80_memory_mb = p80_memory_mb;
    prof.peak_memory_mb = peak_memory_mb;
    prof.mean_sm = mean_sm;
    prof.peak_sm = peak_sm;
    prof.memory_signature = memory_signature;
    prof.sm_signature = sm_signature;
  } else {
    prof.p80_memory_mb =
        (1.0 - kEma) * prof.p80_memory_mb + kEma * p80_memory_mb;
    prof.peak_memory_mb = std::max(prof.peak_memory_mb, peak_memory_mb);
    prof.mean_sm = (1.0 - kEma) * prof.mean_sm + kEma * mean_sm;
    prof.peak_sm = std::max(prof.peak_sm, peak_sm);
    ema_merge(prof.memory_signature, memory_signature);
    ema_merge(prof.sm_signature, sm_signature);
  }
  // Runs complete far less often than schedulers read percentiles, so the
  // sorted shadow is refreshed here rather than per query.
  prof.memory_signature_sorted = prof.memory_signature;
  std::sort(prof.memory_signature_sorted.begin(),
            prof.memory_signature_sorted.end());
  ++prof.observed_runs;
}

const ImageProfile* ProfileStore::find(const std::string& image) const {
  auto it = profiles_.find(image);
  return it == profiles_.end() ? nullptr : &it->second;
}

std::optional<double> ProfileStore::memory_correlation(
    const std::string& a, const std::string& b) const {
  const ImageProfile* pa = find(a);
  const ImageProfile* pb = find(b);
  if (pa == nullptr || pb == nullptr) return std::nullopt;
  if (pa->memory_signature.size() != pb->memory_signature.size()) {
    return std::nullopt;
  }
  return stats::spearman(pa->memory_signature, pb->memory_signature);
}

}  // namespace knots::cluster
