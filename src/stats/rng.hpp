#pragma once

/// \file rng.hpp
/// Deterministic random number generation for the simulator.
///
/// Every stochastic component of the testbed substitute (shadowing,
/// fast fading, sample dropouts, survey paths) draws from an `Rng`
/// seeded explicitly, so every experiment and test in the repo is
/// bit-reproducible. The AR(1) process models the *temporal
/// correlation* of RSSI: consecutive samples at a fixed position are
/// strongly correlated, which is exactly the "unstableness" the paper
/// names as its largest barrier (§6).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

namespace loctk::stats {

/// Thin deterministic wrapper over a 64-bit Mersenne engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal draw. Scales a standard draw instead of parameterizing
  /// the distribution, so sigma = 0 is legal (it returns `mean`);
  /// libstdc++ computes `z * stddev + mean` from the same engine
  /// draws, so every stream with sigma > 0 is unchanged bit for bit.
  double normal(double mean = 0.0, double sigma = 1.0) {
    return mean + sigma * std::normal_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derive an independent child generator; `salt` distinguishes
  /// children of the same parent (e.g. one stream per AP).
  Rng fork(std::uint64_t salt) {
    // splitmix64 of (next engine draw ^ salt) gives well-separated seeds.
    std::uint64_t z = engine_() ^ (salt + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// First-order autoregressive Gaussian process
///   x_{t+1} = rho x_t + sqrt(1 - rho^2) * N(0, sigma).
/// Stationary marginal is N(0, sigma); `rho` in [0, 1) controls how
/// slowly the channel drifts between consecutive scans.
class Ar1Process {
 public:
  /// Starts from a stationary draw so the first sample is unbiased.
  Ar1Process(double sigma, double rho, Rng& rng)
      : sigma_(sigma), rho_(rho), state_(rng.normal(0.0, sigma)) {}

  /// Advance one step and return the new value.
  double next(Rng& rng) {
    const double innovation =
        rng.normal(0.0, sigma_ * std::sqrt(std::max(0.0, 1.0 - rho_ * rho_)));
    state_ = rho_ * state_ + innovation;
    return state_;
  }

  double value() const { return state_; }
  double sigma() const { return sigma_; }
  double rho() const { return rho_; }

 private:
  double sigma_;
  double rho_;
  double state_;
};

}  // namespace loctk::stats
