#include "stats/autocorrelation.hpp"

namespace knots::stats {

double autocorrelation(std::span<const double> ys, std::size_t lag) {
  const std::size_t n = ys.size();
  if (lag == 0) return 1.0;
  if (n < 2 || lag >= n) return 0.0;
  double sum = 0.0;
  for (double y : ys) sum += y;
  const double ybar = sum / static_cast<double>(n);
  double denom = 0.0;
  for (double y : ys) denom += (y - ybar) * (y - ybar);
  if (denom == 0.0) return 0.0;
  double num = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    num += (ys[i] - ybar) * (ys[i + lag] - ybar);
  }
  return num / denom;
}

std::vector<double> autocorrelations(std::span<const double> ys,
                                     std::size_t max_lag) {
  std::vector<double> out;
  out.reserve(max_lag);
  for (std::size_t k = 1; k <= max_lag; ++k)
    out.push_back(autocorrelation(ys, k));
  return out;
}

std::size_t dominant_positive_lag(std::span<const double> ys,
                                  std::size_t max_lag) {
  std::size_t best_lag = 0;
  double best = 0.0;
  for (std::size_t k = 1; k <= max_lag && k < ys.size(); ++k) {
    const double r = autocorrelation(ys, k);
    if (r > best) {
      best = r;
      best_lag = k;
    }
  }
  return best_lag;
}

}  // namespace knots::stats
