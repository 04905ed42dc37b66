// Deterministic random number generation for reproducible experiments.
//
// Engine: xoshiro256** seeded via splitmix64, per Blackman & Vigna. Every
// experiment component owns its own Rng (derived from a root seed + stream
// id), so adding a component never perturbs the draws of another.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace knots {

/// splitmix64 step; used for seeding and for cheap hash mixing.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** engine satisfying UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Convenience wrapper bundling an engine with the distributions used in the
/// workload models. All methods are deterministic given (seed, call order).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) noexcept
      : root_seed_(seed), engine_(seed) {}

  /// Derives an independent child stream; `stream` labels the component.
  [[nodiscard]] Rng fork(std::uint64_t stream) const noexcept;

  /// Counter-based fork: the `index`-th stream of a `base` family,
  /// identical to `fork(base + index)`. The derivation is a pure function
  /// of (root seed, stream id) — no shared engine state — so a family's
  /// streams do not depend on parent draws or on the order they are forked
  /// in (serve's per-service arrival streams rely on this).
  [[nodiscard]] Rng fork_at(std::uint64_t base,
                            std::uint64_t index) const noexcept {
    return fork(base + index);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Exponential with given mean (= 1/rate).
  double exponential(double mean) noexcept;
  /// Normal with mean/stddev (Box–Muller, one value per call).
  double normal(double mean, double stddev) noexcept;
  /// Advances the stream past `count` normal() calls without evaluating
  /// them: each consumes exactly the uniforms normal() would, rejection loop
  /// included, so a stream that skips a draw stays in lockstep with one that
  /// makes it.
  void skip_normal(std::size_t count = 1) noexcept;
  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) noexcept;
  /// Bounded Pareto with shape alpha on [lo, hi].
  double pareto(double alpha, double lo, double hi) noexcept;
  /// Bernoulli trial.
  bool chance(double p) noexcept;
  /// Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights) noexcept;

  Xoshiro256& engine() noexcept { return engine_; }

 private:
  /// The uniforms of one Box–Muller draw, u1 in (0, 1) and u2 in [0, 1):
  /// the one step normal() and skip_normal() share.
  struct NormalUniforms {
    double u1;
    double u2;
  };
  NormalUniforms normal_uniforms() noexcept;

  std::uint64_t root_seed_;
  Xoshiro256 engine_;

  explicit Rng(Xoshiro256 engine, std::uint64_t root) noexcept
      : root_seed_(root), engine_(engine) {}
};

}  // namespace knots
