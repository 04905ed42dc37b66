// Head-node container resource-usage profile store (Fig 5).
//
// Kube-Knots needs no *a priori* profiling: the first pod of an image runs
// conservatively provisioned, and its observed usage builds a per-image
// profile that later placements consult for 80th-percentile sizing and for
// CBP's inter-application correlation checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace knots::cluster {

struct ImageProfile {
  std::string image;
  int observed_runs = 0;
  double p80_memory_mb = 0;   ///< 80th-percentile footprint (CBP's resize target).
  double peak_memory_mb = 0;  ///< Largest footprint ever observed.
  double mean_sm = 0;         ///< Average SM demand.
  double peak_sm = 0;
  /// Phase-aligned memory signature over one application cycle (fixed
  /// length); used for pairwise Spearman correlation between images.
  std::vector<double> memory_signature;
  std::vector<double> sm_signature;
  /// memory_signature ascending, maintained by record_run(). CBP reads
  /// footprint percentiles of this once per pending pod per tick (and
  /// O(n log n) times inside its sort comparator); keeping the sorted copy
  /// here turns each of those into an O(1) percentile_sorted() lookup.
  std::vector<double> memory_signature_sorted;
};

class ProfileStore {
 public:
  /// Folds one completed (or crashed-late) run's observations into the
  /// image's profile with an exponential moving average.
  void record_run(const std::string& image, double p80_memory_mb,
                  double peak_memory_mb, double mean_sm, double peak_sm,
                  const std::vector<double>& memory_signature,
                  const std::vector<double>& sm_signature);

  [[nodiscard]] const ImageProfile* find(const std::string& image) const;
  [[nodiscard]] bool known(const std::string& image) const {
    return profiles_.contains(image);
  }
  [[nodiscard]] std::size_t size() const noexcept { return profiles_.size(); }

  /// Bumped when record_run() adds an image, the only change to what
  /// find() returns: later runs update the profile in place, and
  /// ImageProfile pointers are stable (node-based map). Schedulers key
  /// per-pod profile caches on this: while the generation stands still, a
  /// cached find() result — pointer or miss — is still current, and reads
  /// through a cached pointer see the latest runs. A value derived from a
  /// profile's contents must be keyed on its observed_runs instead.
  [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }

  /// Spearman correlation between two images' memory signatures; nullopt
  /// when either image is unknown (CBP then provisions conservatively).
  [[nodiscard]] std::optional<double> memory_correlation(
      const std::string& a, const std::string& b) const;

 private:
  std::unordered_map<std::string, ImageProfile> profiles_;
  std::uint64_t gen_ = 0;
};

}  // namespace knots::cluster
