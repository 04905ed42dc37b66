// Head-node container resource-usage profile store (Fig 5).
//
// Kube-Knots needs no *a priori* profiling: the first pod of an image runs
// conservatively provisioned, and its observed usage builds a per-image
// profile that later placements consult for percentile sizing and for
// CBP's inter-application correlation checks.
//
// The cluster interns every pod's profile key into a dense ImageId when it
// creates the pod, so schedulers index profiles by id: the string map is
// touched only by intern().
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace knots::cluster {

/// What CBP and PP read of one image's completed runs.
struct ImageProfile {
  int observed_runs = 0;
  double mean_sm = 0;  ///< Average SM demand (EMA over runs).
  double peak_sm = 0;  ///< Largest SM demand ever observed.
  /// Phase-aligned memory signature over one application cycle (fixed
  /// length); used for pairwise Spearman correlation between images.
  std::vector<double> memory_signature;
  /// memory_signature ascending, maintained by record_run(). CBP reads
  /// footprint percentiles of this; keeping the sorted copy here turns each
  /// into an O(1) percentile_sorted() lookup.
  std::vector<double> memory_signature_sorted;
  /// stats::fractional_ranks(memory_signature), maintained by record_run():
  /// memory_correlation() correlates these instead of re-ranking both
  /// signatures for every pair CBP checks.
  std::vector<double> memory_signature_ranks;
};

class ProfileStore {
 public:
  /// The dense id of a profile key, allocated (from 0, in first-sight
  /// order) the first time the key is seen. Equal keys share one id.
  ImageId intern(const std::string& key);

  /// Folds one completed run's observations into the image's profile with
  /// an exponential moving average (the first run is stored verbatim).
  void record_run(ImageId image, double mean_sm, double peak_sm,
                  const std::vector<double>& memory_signature);

  /// The image's profile, or null until its first recorded run. Valid
  /// until the next intern().
  [[nodiscard]] const ImageProfile* find(ImageId image) const;
  /// Interned images, profiled or not.
  [[nodiscard]] std::size_t size() const noexcept { return profiles_.size(); }

  /// Spearman correlation between two images' memory signatures (the
  /// Pearson correlation of their stored ranks, bit for bit
  /// stats::spearman); nullopt when either image has no run yet (CBP then
  /// provisions conservatively) or their signature lengths differ.
  [[nodiscard]] std::optional<double> memory_correlation(ImageId a,
                                                         ImageId b) const;

 private:
  std::unordered_map<std::string, ImageId> ids_;
  std::vector<ImageProfile> profiles_;  ///< Indexed by ImageId.
};

}  // namespace knots::cluster
