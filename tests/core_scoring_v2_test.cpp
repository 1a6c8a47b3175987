// Scoring engine v2 tests.
//
// 1. Backend bit-compatibility: every kernel in core/score_kernels.hpp
//    instantiated with the native backend (simd::Vec4d — AVX2/NEON
//    when LOCTK_SIMD is on) must produce BIT-identical results to the
//    always-compiled scalar fallback (simd::ScalarVec4d), including
//    NaN observations, zero-mask (empty-overlap) rows, and the stride
//    pad. This is the contract that lets CI build the fallback on its
//    own matrix leg and trust it never rots.
// 2. The exact sparse sweep at campus cardinality: slot bookkeeping
//    past the 1000-AP mark, a sparsely trained winner a strongest-AP
//    prefilter would drop, and the retired pruning knobs leaving every
//    answer (degenerate queries included) untouched.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/simd.hpp"
#include "core/probabilistic.hpp"
#include "core/score_kernels.hpp"
#include "radio/access_point.hpp"
#include "stats/rng.hpp"
#include "test_fixtures.hpp"
#include "testkit/scenario.hpp"

namespace loctk::core {
namespace {

/// Bitwise double equality (NaN-aware: identical bit patterns).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits 0x" << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs 0x"
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// A randomized padded row set mimicking CompiledDatabase layout.
struct KernelRow {
  simd::AlignedDoubles mean, mask, log_norm, inv_two_var;
  simd::AlignedDoubles q_mean, q_present;
  std::size_t stride = 0;
};

KernelRow random_row(stats::Rng& rng, std::size_t universe,
                     bool zero_mask, bool nan_query) {
  KernelRow r;
  r.stride = simd::padded_stride(universe);
  for (auto* v : {&r.mean, &r.mask, &r.log_norm, &r.inv_two_var, &r.q_mean,
                  &r.q_present}) {
    v->assign(r.stride, 0.0);
  }
  for (std::size_t u = 0; u < universe; ++u) {
    const bool trained = !zero_mask && rng.bernoulli(0.7);
    r.mask[u] = trained ? 1.0 : 0.0;
    if (trained) {
      r.mean[u] = rng.uniform(-95.0, -35.0);
      r.log_norm[u] = rng.uniform(-4.0, -1.0);
      r.inv_two_var[u] = rng.uniform(0.01, 0.5);
    }
    const bool heard = rng.bernoulli(0.6);
    r.q_present[u] = heard ? 1.0 : 0.0;
    if (heard) {
      r.q_mean[u] = nan_query && rng.bernoulli(0.3)
                        ? std::numeric_limits<double>::quiet_NaN()
                        : rng.uniform(-105.0, -25.0);
    }
  }
  return r;
}

TEST(ScoringV2Kernels, NativeBackendBitIdenticalToScalarFallback) {
  stats::Rng rng(9100);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t universe = 1 + static_cast<std::size_t>(trial) % 21;
    const bool zero_mask = trial % 7 == 0;   // empty-overlap row
    const bool nan_query = trial % 5 == 0;   // degenerate observation
    const KernelRow r = random_row(rng, universe, zero_mask, nan_query);

    const auto ps = kernels::prob_score_row<simd::ScalarVec4d>(
        r.mean.data(), r.mask.data(), r.log_norm.data(),
        r.inv_two_var.data(), r.q_mean.data(), r.q_present.data(), r.stride);
    const auto pv = kernels::prob_score_row<simd::Vec4d>(
        r.mean.data(), r.mask.data(), r.log_norm.data(),
        r.inv_two_var.data(), r.q_mean.data(), r.q_present.data(), r.stride);
    EXPECT_TRUE(bits_equal(ps.gauss, pv.gauss)) << "trial " << trial;
    EXPECT_TRUE(bits_equal(ps.common, pv.common)) << "trial " << trial;

    EXPECT_TRUE(bits_equal(
        kernels::sq_dist_row<simd::ScalarVec4d>(r.mean.data(),
                                                r.q_mean.data(), r.stride),
        kernels::sq_dist_row<simd::Vec4d>(r.mean.data(), r.q_mean.data(),
                                          r.stride)))
        << "trial " << trial;

    const auto ms = kernels::ssd_moments_row<simd::ScalarVec4d>(
        r.mean.data(), r.mask.data(), r.q_mean.data(), r.q_present.data(),
        r.stride);
    const auto mv = kernels::ssd_moments_row<simd::Vec4d>(
        r.mean.data(), r.mask.data(), r.q_mean.data(), r.q_present.data(),
        r.stride);
    EXPECT_TRUE(bits_equal(ms.n, mv.n));
    EXPECT_TRUE(bits_equal(ms.sum_o, mv.sum_o));
    EXPECT_TRUE(bits_equal(ms.sum_t, mv.sum_t));

    const double mo = ms.n > 0.0 ? ms.sum_o / ms.n : 0.0;
    const double mt = ms.n > 0.0 ? ms.sum_t / ms.n : 0.0;
    EXPECT_TRUE(bits_equal(
        kernels::ssd_sq_dist_row<simd::ScalarVec4d>(
            r.mean.data(), r.mask.data(), r.q_mean.data(),
            r.q_present.data(), mo, mt, r.stride),
        kernels::ssd_sq_dist_row<simd::Vec4d>(
            r.mean.data(), r.mask.data(), r.q_mean.data(),
            r.q_present.data(), mo, mt, r.stride)))
        << "trial " << trial;
  }
}

TEST(ScoringV2Kernels, ObsMajorKernelBitIdenticalToSingleRow) {
  // The batched locate path puts four observations in the vector lanes
  // and scores them per row pass; each lane must match the single-query
  // slot-major kernel bit for bit (and the scalar instantiation must
  // match the native one).
  stats::Rng rng(9103);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t universe = 1 + static_cast<std::size_t>(trial) % 21;
    const KernelRow row = random_row(rng, universe, trial % 7 == 0, false);
    KernelRow queries[4];
    simd::AlignedDoubles qm_t(row.stride * simd::kLanes, 0.0);
    simd::AlignedDoubles qp_t(row.stride * simd::kLanes, 0.0);
    for (std::size_t i = 0; i < 4; ++i) {
      queries[i] = random_row(rng, universe, false, i == 3 && trial % 5 == 0);
      for (std::size_t u = 0; u < row.stride; ++u) {
        qm_t[u * simd::kLanes + i] = queries[i].q_mean[u];
        qp_t[u * simd::kLanes + i] = queries[i].q_present[u];
      }
    }
    simd::Vec4d gauss_n, common_n;
    simd::ScalarVec4d gauss_s, common_s;
    kernels::prob_score_row_obs4<simd::Vec4d>(
        row.mean.data(), row.mask.data(), row.log_norm.data(),
        row.inv_two_var.data(), qm_t.data(), qp_t.data(), row.stride,
        &gauss_n, &common_n);
    kernels::prob_score_row_obs4<simd::ScalarVec4d>(
        row.mean.data(), row.mask.data(), row.log_norm.data(),
        row.inv_two_var.data(), qm_t.data(), qp_t.data(), row.stride,
        &gauss_s, &common_s);
    alignas(simd::kAlignment) double gn[4], cn[4], gs[4], cs[4];
    gauss_n.store(gn);
    common_n.store(cn);
    gauss_s.store(gs);
    common_s.store(cs);
    for (std::size_t i = 0; i < 4; ++i) {
      const auto single = kernels::prob_score_row<simd::Vec4d>(
          row.mean.data(), row.mask.data(), row.log_norm.data(),
          row.inv_two_var.data(), queries[i].q_mean.data(),
          queries[i].q_present.data(), row.stride);
      EXPECT_TRUE(bits_equal(gn[i], single.gauss))
          << "trial " << trial << " q" << i;
      EXPECT_TRUE(bits_equal(cn[i], single.common))
          << "trial " << trial << " q" << i;
      EXPECT_TRUE(bits_equal(gs[i], gn[i])) << "trial " << trial << " q" << i;
      EXPECT_TRUE(bits_equal(cs[i], cn[i])) << "trial " << trial << " q" << i;
    }
  }
}

TEST(ScoringV2Kernels, SelectOpsBitIdenticalAcrossBackends) {
  // The batched epilogue's lane-wise selects must agree with the
  // scalar ternary everywhere, including NaN (compares false -> y)
  // and signed-zero operands.
  stats::Rng rng(9104);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, kNan, kInf, -kInf, 1.0, -1.0};
  for (int trial = 0; trial < 200; ++trial) {
    alignas(simd::kAlignment) double a[4], b[4], x[4], y[4];
    for (int i = 0; i < 4; ++i) {
      const bool special = rng.bernoulli(0.4);
      a[i] = special ? specials[static_cast<std::size_t>(
                           rng.uniform(0.0, 6.999))]
                     : rng.uniform(-10.0, 10.0);
      b[i] = special ? specials[static_cast<std::size_t>(
                           rng.uniform(0.0, 6.999))]
                     : rng.uniform(-10.0, 10.0);
      x[i] = rng.uniform(-10.0, 10.0);
      y[i] = rng.uniform(-10.0, 10.0);
    }
    alignas(simd::kAlignment) double out_n[4], out_s[4];
    const auto check = [&](auto&& native, auto&& scalar) {
      native.store(out_n);
      scalar.store(out_s);
      for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(bits_equal(out_n[i], out_s[i]))
            << "trial " << trial << " lane " << i << " a=" << a[i]
            << " b=" << b[i];
      }
    };
    using SV = simd::ScalarVec4d;
    using NV = simd::Vec4d;
    check(NV::select_gt(NV::load(a), NV::load(b), NV::load(x), NV::load(y)),
          SV::select_gt(SV::load(a), SV::load(b), SV::load(x), SV::load(y)));
    check(NV::select_ge(NV::load(a), NV::load(b), NV::load(x), NV::load(y)),
          SV::select_ge(SV::load(a), SV::load(b), SV::load(x), SV::load(y)));
  }
}

TEST(ScoringV2Kernels, AxpyAndHistFoldBitIdentical) {
  stats::Rng rng(9101);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n =
        simd::padded_stride(1 + static_cast<std::size_t>(trial) % 40);
    simd::AlignedDoubles col(n), mask(n), acc_s(n, 0.0), acc_v(n, 0.0);
    simd::AlignedDoubles tot_s(n, 0.0), tot_v(n, 0.0), com_s(n, 0.0),
        com_v(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      col[i] = rng.uniform(-8.0, 0.0);
      mask[i] = rng.bernoulli(0.5) ? 1.0 : 0.0;
    }
    const double a = rng.uniform(0.5, 4.0);
    const double inv_n = 1.0 / rng.uniform(1.0, 9.0);
    kernels::axpy<simd::ScalarVec4d>(a, col.data(), acc_s.data(), n);
    kernels::axpy<simd::Vec4d>(a, col.data(), acc_v.data(), n);
    kernels::hist_fold_slot<simd::ScalarVec4d>(
        acc_s.data(), mask.data(), inv_n, tot_s.data(), com_s.data(), n);
    kernels::hist_fold_slot<simd::Vec4d>(acc_v.data(), mask.data(), inv_n,
                                         tot_v.data(), com_v.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bits_equal(acc_s[i], acc_v[i])) << i;
      EXPECT_TRUE(bits_equal(tot_s[i], tot_v[i])) << i;
      EXPECT_TRUE(bits_equal(com_s[i], com_v[i])) << i;
    }
  }
}

TEST(ScoringV2Kernels, PaddedCellsContributeExactZero) {
  // A row whose pad region is the only difference must score
  // identically to a stride-sized universe: pad cells carry mask 0
  // and value 0, so each padded term is an exact +/-0.0.
  stats::Rng rng(9102);
  const KernelRow r = random_row(rng, 5, false, false);
  ASSERT_GT(r.stride, 5u);
  double serial_gauss = 0.0, serial_common = 0.0;
  for (std::size_t u = 0; u < r.stride; ++u) {
    const double both = r.mask[u] * r.q_present[u];
    const double d = r.q_mean[u] - r.mean[u];
    serial_gauss += both * (r.log_norm[u] - d * d * r.inv_two_var[u]);
    serial_common += both;
  }
  const auto got = kernels::prob_score_row<simd::Vec4d>(
      r.mean.data(), r.mask.data(), r.log_norm.data(), r.inv_two_var.data(),
      r.q_mean.data(), r.q_present.data(), r.stride);
  EXPECT_NEAR(got.gauss, serial_gauss, 1e-12);
  EXPECT_EQ(got.common, serial_common);
}

// A non-finite reading sends the sweep to the dense fallback; the
// retired pruning knobs must not change that answer either.
TEST(ExactSweep, DegenerateQueriesKeepExactAnswer) {
  const testkit::Scenario scenario(testkit::ScenarioSpec::fleet(2, 8, 72));
  const auto compiled = CompiledDatabase::compile(scenario.database());
  std::vector<radio::ScanRecord> scans(1);
  scans[0].samples.push_back(
      {scenario.database().bssid_universe().front(),
       std::numeric_limits<double>::quiet_NaN(), 1});
  const Observation nan_obs = Observation::from_scans(scans);

  ProbabilisticConfig pruned_cfg;
  pruned_cfg.prune_top_k = 8;
  const ProbabilisticLocator pruned(compiled, pruned_cfg);
  const ProbabilisticLocator exact(compiled);
  const LocationEstimate a = pruned.locate(nan_obs);
  const LocationEstimate b = exact.locate(nan_obs);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.location_name, b.location_name);
}

/// Campus-cardinality fixture: `points` training rows over a >1000
/// slot universe, row p trained on the contiguous AP window
/// [p*step, p*step + width). Two-byte synthetic BSSIDs sort in index
/// order, so slot u is AP u.
traindb::TrainingDatabase make_wide_universe_db(int points = 40,
                                                int step = 26,
                                                int width = 30) {
  std::vector<traindb::TrainingPoint> rows(
      static_cast<std::size_t>(points));
  for (int p = 0; p < points; ++p) {
    rows[p].location = "w" + std::to_string(p);
    rows[p].position = {static_cast<double>(p) * 10.0, 0.0};
    for (int a = p * step; a < p * step + width; ++a) {
      traindb::ApStatistics s;
      s.bssid = radio::synthetic_bssid(a);
      s.mean_dbm = -50.0 - (a % 7);
      s.stddev_db = 2.0;
      s.sample_count = 30;
      s.scan_count = 30;
      s.min_dbm = s.mean_dbm - 4.0;
      s.max_dbm = s.mean_dbm + 4.0;
      rows[p].per_ap.push_back(std::move(s));
    }
  }
  return traindb::TrainingDatabase::from_points(std::move(rows),
                                                "wide-universe");
}

Observation wide_observation(int first_ap, int count, double dbm = -50.0) {
  std::vector<radio::ScanRecord> scans(1);
  for (int a = first_ap; a < first_ap + count; ++a) {
    scans[0].samples.push_back({radio::synthetic_bssid(a), dbm, 1});
  }
  return Observation::from_scans(scans);
}

// Campus-cardinality audit: slot bookkeeping past the 1000-AP mark.
// The postings walk must hold when slot indices no longer fit habits
// formed on 4-AP sites, with or without the retired pruning knobs.
TEST(ExactSweep, HandlesAThousandSlotUniverse) {
  const auto db = make_wide_universe_db();  // 40*26+30-26 = 1044 slots
  const auto compiled = CompiledDatabase::compile(db);
  ASSERT_GT(compiled->universe_size(), 1000u);

  ProbabilisticConfig pruned_cfg;
  pruned_cfg.prune_top_k = 8;
  const ProbabilisticLocator exact(compiled);
  const ProbabilisticLocator pruned(compiled, pruned_cfg);
  for (const int first : {3, 700, 1020}) {
    const Observation obs = wide_observation(first, 10);
    ASSERT_EQ(compiled->compile_observation(obs).in_universe(), 10);
    const LocationEstimate a = exact.locate(obs);
    const LocationEstimate b = pruned.locate(obs);
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    EXPECT_EQ(b.location_name, a.location_name);
    EXPECT_EQ(b.score, a.score);
  }
}

// Campus-scale recall regression: the likelihood charges a flat
// penalty per visibility disagreement, so a sparsely trained row (one
// exact AP, five cheap penalties) beats a densely trained row that
// misfits every observed AP by 15 dB. A strongest-AP prefilter never
// even visits that row — it is not trained on the strongest observed
// AP — which is exactly how a pruned probabilistic path once lost
// top-1 parity on generated campuses. The probabilistic locator does
// not prune: even with the retired knobs at their tightest it returns
// the exact sparse winner bit for bit.
TEST(ExactSweep, KeepsSparseWinnerAPrefilterWouldDrop) {
  auto trained = [](int ap, double mean) {
    traindb::ApStatistics s;
    s.bssid = radio::synthetic_bssid(ap);
    s.mean_dbm = mean;
    s.stddev_db = 2.0;
    s.sample_count = 30;
    s.scan_count = 30;
    s.min_dbm = mean - 4.0;
    s.max_dbm = mean + 4.0;
    return s;
  };
  std::vector<traindb::TrainingPoint> rows(3);
  for (int p = 0; p < 2; ++p) {
    rows[p].location = "dense" + std::to_string(p);
    rows[p].position = {10.0 * p, 0.0};
    for (int a = 0; a < 6; ++a) {
      rows[p].per_ap.push_back(trained(a, -60.0 - p));
    }
  }
  rows[2].location = "sparse";
  rows[2].position = {50.0, 0.0};
  rows[2].per_ap.push_back(trained(5, -70.0));
  const auto db =
      traindb::TrainingDatabase::from_points(std::move(rows), "ml-recall");
  const auto compiled = CompiledDatabase::compile(db);

  std::vector<radio::ScanRecord> scans(1);
  for (int a = 0; a < 5; ++a) {
    scans[0].samples.push_back({radio::synthetic_bssid(a), -45.0, 1});
  }
  scans[0].samples.push_back({radio::synthetic_bssid(5), -70.0, 1});
  const Observation obs = Observation::from_scans(scans);

  const ProbabilisticLocator exact(compiled);
  const LocationEstimate e = exact.locate(obs);
  ASSERT_TRUE(e.valid);
  ASSERT_EQ(e.location_name, "sparse");

  // Knobs set or not, the winner is the sparse row.
  ProbabilisticConfig pruned_cfg;
  pruned_cfg.prune_top_k = 1;
  pruned_cfg.prune_strongest_aps = 1;
  const ProbabilisticLocator pruned(compiled, pruned_cfg);
  const LocationEstimate p = pruned.locate(obs);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.location_name, e.location_name);
  EXPECT_TRUE(bits_equal(p.score, e.score));
}

}  // namespace
}  // namespace loctk::core
