#pragma once

/// \file compiled_db.hpp
/// Dense, cache-friendly compilation of a TrainingDatabase.
///
/// Every fingerprint locator's inner loop walks <training point, AP>
/// pairs. The string-keyed form (`TrainingPoint::find`,
/// `Observation::mean_of`) pays a BSSID comparison per pair, which is
/// fine for the paper's 12-point house but dominates once the radio
/// map grows to campus scale. `CompiledDatabase` interns the BSSID
/// universe to integer slots once and lays the per-pair statistics out
/// as row-major `points x universe` structure-of-arrays matrices, so
/// scoring kernels become flat, branch-light loops over doubles.
///
/// The compiled form is a *view plus derived data*: it keeps a
/// non-owning pointer to the source database (which must outlive it)
/// and all dense matrices. Locators share one compilation through
/// `std::shared_ptr<const CompiledDatabase>`.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/simd.hpp"
#include "concurrency/parallel_for.hpp"
#include "core/observation.hpp"
#include "traindb/database.hpp"

namespace loctk::core {

/// Maps with fewer padded cells than this (`point_count() x
/// row_stride()`) compile, and build their locator tables, on the
/// calling thread: the paper house has 96 and an office floor a few
/// hundred, so their republishes wake no thread. Larger maps (a campus
/// has 245,760) fan their row fills out on
/// `concurrency::default_pool()`.
inline constexpr std::size_t kInlineBuildCells = std::size_t{1} << 16;

/// Calls `body(lo, hi)` over contiguous ranges that cover [0, n) — the
/// rows or the slots of a table with `cells` padded cells: once on the
/// calling thread below kInlineBuildCells, otherwise one range per
/// default-pool thread. The ranges are disjoint, so a body that writes
/// only its own rows or slots needs no lock.
template <typename Body>
void for_each_build_range(std::size_t n, std::size_t cells, Body&& body) {
  if (cells < kInlineBuildCells) {
    body(std::size_t{0}, n);
    return;
  }
  concurrency::ThreadPool& pool = concurrency::default_pool();
  const std::size_t parts = std::min(n, pool.thread_count());
  concurrency::parallel_for(pool, 0, parts, [&](std::size_t k) {
    body(n * k / parts, n * (k + 1) / parts);
  });
}

/// An Observation lowered onto a compiled universe: dense mean vector,
/// presence mask, the list of occupied slots, and each slot's raw
/// readings. Produced by `CompiledDatabase::compile_observation` or
/// folded straight from a session's scan window (location_service.hpp);
/// valid only against the database it was lowered onto. Self-contained:
/// it points into no source object.
struct CompiledObservation {
  /// Mean dBm per universe slot; 0.0 where the AP was not heard (the
  /// presence mask gates every use, so the fill value never leaks).
  /// 64-byte aligned and padded to the database's row stride so the
  /// SIMD kernels can use unmasked aligned loads.
  simd::AlignedDoubles mean_dbm;
  /// 1.0 where the slot was heard, 0.0 otherwise — kept as doubles so
  /// kernels can multiply instead of branch. Same alignment/padding
  /// as `mean_dbm`; pad cells are 0.0 (never present).
  simd::AlignedDoubles present;
  /// Occupied slot ids, ascending (== BSSID order).
  std::vector<std::uint32_t> slots;
  /// Raw readings of every occupied slot, slot after slot in `slots`
  /// order and in window order within a slot; `sample_ends[i]` is the
  /// end of slot i's run. Histogram scoring reads them per reading.
  std::vector<double> samples;
  std::vector<std::uint32_t> sample_ends;
  /// Observed APs whose BSSID is not in the training universe. They
  /// can never match any training point, so locators fold them into
  /// the missing-AP penalty as a per-observation constant.
  int outside_universe = 0;
  /// Total APs in the source observation.
  std::size_t total_aps = 0;
  /// False when any observed AP's mean dBm — in the universe or not —
  /// is non-finite (two finite 1e308 readings overflow their sum).
  bool finite = true;

  /// Occupied slots inside the universe.
  int in_universe() const { return static_cast<int>(slots.size()); }
  bool empty() const { return total_aps == 0; }
  /// Raw readings of the i-th occupied slot (`slots[i]`), in window
  /// order; empty when the source kept no raw values.
  std::span<const double> slot_samples(std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : sample_ends[i - 1];
    return {samples.data() + begin, sample_ends[i] - begin};
  }
};

/// One incremental update to a compiled radio map: training points to
/// add or replace, keyed by `TrainingPoint::location`. An upsert whose
/// location already exists replaces that point in place (same row
/// index); a new location appends. Later upserts for the same location
/// within one delta win. This is the unit the fingerprint lifecycle
/// produces — a resurveyed dwell, a crowd-sourced fix — and feeds to
/// `CompiledDatabase::delta_compile`.
struct DatabaseDelta {
  std::vector<traindb::TrainingPoint> upserts;

  bool empty() const { return upserts.empty(); }
};

/// Dense structure-of-arrays form of a TrainingDatabase.
class CompiledDatabase {
 public:
  /// `db` must outlive the compiled form.
  explicit CompiledDatabase(const traindb::TrainingDatabase& db);

  /// Owning form: moves `db` in, so the compiled database is
  /// self-contained — the serve path keeps no string-keyed database
  /// alive anywhere else.
  explicit CompiledDatabase(traindb::TrainingDatabase&& db);

  /// Not copyable: id() names one compilation.
  CompiledDatabase(const CompiledDatabase&) = delete;
  CompiledDatabase& operator=(const CompiledDatabase&) = delete;

  /// Shared-ownership convenience so several locators reuse one
  /// compilation.
  static std::shared_ptr<const CompiledDatabase> compile(
      const traindb::TrainingDatabase& db) {
    return std::make_shared<const CompiledDatabase>(db);
  }

  /// Shared-ownership owning compilation.
  static std::shared_ptr<const CompiledDatabase> compile_owned(
      traindb::TrainingDatabase db) {
    return std::make_shared<const CompiledDatabase>(std::move(db));
  }

  /// Incremental recompilation: merges `delta` into this database and
  /// compiles the result without re-interning unchanged rows. The
  /// returned database is owning and **oracle-equal** to a from-scratch
  /// `compile_owned(TrainingDatabase::from_points(merged points))`:
  /// same point order (replacements in place, appends at the end), same
  /// sorted universe — new BSSIDs intern new slots and every row
  /// re-pads to the new `row_stride()`; a BSSID whose last occurrence
  /// was replaced away leaves the universe, exactly as a full rebuild
  /// would drop it. Unchanged rows are moved by contiguous-run copies
  /// under the monotonic old-slot → new-slot remap; only
  /// replaced/appended rows pay the per-AP merge. Throws
  /// traindb::DatabaseError on malformed upserts (duplicate location
  /// names are impossible by construction; the underlying from_points
  /// validation still runs).
  std::shared_ptr<const CompiledDatabase> delta_compile(
      const DatabaseDelta& delta) const;

  /// Process-unique tag of this compilation, drawn from a counter at
  /// construction (delta_compile results included) and never reused,
  /// not even after this object is freed. Sessions tag their sorted
  /// run of lowered window readings with it (location_service.hpp).
  std::uint64_t id() const { return id_; }

  const traindb::TrainingDatabase& database() const { return *db_; }
  std::size_t point_count() const { return points_; }
  std::size_t universe_size() const { return universe_; }
  /// Doubles per matrix row: `universe_size()` rounded up to a
  /// multiple of 8 (one 64-byte cache line of doubles), so every row
  /// starts 64-byte aligned and vector loads need no tail masking.
  /// Cells in [universe_size(), row_stride()) are pad: mask 0, value
  /// 0.0.
  std::size_t row_stride() const { return stride_; }
  bool empty() const { return points_ == 0; }

  /// Universe slot of `bssid` (the interned id); nullopt when unknown.
  /// One probe of a flat open-addressed table: a 32-bit hash tag per
  /// cell screens out mismatches before any string compare.
  std::optional<std::uint32_t> slot_of(std::string_view bssid) const;

  /// Lowers an observation onto this universe in one sorted merge.
  CompiledObservation compile_observation(const Observation& obs) const;

  /// compile_observation into an existing object, reusing its buffer
  /// capacity — the batched locate path compiles thousands of queries
  /// through per-thread scratch without touching the allocator.
  void compile_observation_into(const Observation& obs,
                                CompiledObservation* out) const;

  /// Row-major accessors; each row has `universe_size()` meaningful
  /// doubles followed by zero pad up to `row_stride()`. Every row
  /// pointer is 64-byte aligned.
  const double* mean_row(std::size_t point) const {
    return mean_.data() + point * stride_;
  }
  const double* stddev_row(std::size_t point) const {
    return stddev_.data() + point * stride_;
  }
  /// Presence as a 1.0/0.0 multiplicative mask (exact 0.0 in pad).
  const double* mask_row(std::size_t point) const {
    return mask_.data() + point * stride_;
  }
  /// Sample counts as doubles (0 where absent) — pooled-variance
  /// weights.
  const double* weight_row(std::size_t point) const {
    return weight_.data() + point * stride_;
  }

  /// APs trained at `point` (row popcount).
  int trained_count(std::size_t point) const {
    return trained_count_[point];
  }

  const traindb::TrainingPoint& point(std::size_t i) const {
    return db_->points()[i];
  }

 private:
  /// Delta build: takes the merged database plus the compilation it
  /// evolved from and the per-row changed flags (indices >= base row
  /// count are appended). Used only by delta_compile.
  CompiledDatabase(traindb::TrainingDatabase&& merged,
                   const CompiledDatabase& base,
                   const std::vector<bool>& row_changed);

  /// Sizes the four matrices, all zeros, and trained_count_.
  void allocate_matrices();
  void build_matrices();
  void build_slot_index();
  /// Interns one point's per-AP stats into the row at `base` (row
  /// already zeroed) against db_'s universe; returns the trained-AP
  /// count for the row.
  int compile_row(const traindb::TrainingPoint& tp, std::size_t base);
  void delta_build(const CompiledDatabase& base,
                   const std::vector<bool>& row_changed);

  static std::uint64_t next_id();

  std::uint64_t id_ = next_id();
  /// Set only by the owning constructor; db_ then points into it.
  std::shared_ptr<const traindb::TrainingDatabase> owned_;
  const traindb::TrainingDatabase* db_;  // non-owning
  std::size_t points_ = 0;
  std::size_t universe_ = 0;
  /// Padded row stride (simd::padded_stride(universe_)).
  std::size_t stride_ = 0;
  simd::ZeroedDoubles mean_;
  simd::ZeroedDoubles stddev_;
  simd::ZeroedDoubles mask_;
  simd::ZeroedDoubles weight_;
  std::vector<int> trained_count_;
  /// One cell of the BSSID → slot index: the high half of the key's
  /// hash and its slot; slot kNoSlot marks an empty cell.
  struct IndexCell {
    std::uint32_t tag = 0;
    std::uint32_t slot = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// The universe BSSIDs back to back; slot j's key is
  /// [key_ends_[j - 1], key_ends_[j]) (from 0 for slot 0).
  std::string keys_;
  std::vector<std::uint32_t> key_ends_;
  /// Linear-probing table, a power of two at least twice the universe,
  /// so a probe ends at an empty cell; indexed by the hash's low bits.
  std::vector<IndexCell> index_;
};

}  // namespace loctk::core
