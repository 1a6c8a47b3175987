#include "core/compiled_db.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <string>
#include <unordered_map>

#include "base/string_hash.hpp"

namespace loctk::core {

std::uint64_t CompiledDatabase::next_id() {
  // Starts at 1 so 0 can mean "stale" to a run tagged with ids.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

CompiledDatabase::CompiledDatabase(const traindb::TrainingDatabase& db)
    : db_(&db) {
  build_matrices();
  build_slot_index();
}

CompiledDatabase::CompiledDatabase(traindb::TrainingDatabase&& db)
    : owned_(std::make_shared<const traindb::TrainingDatabase>(
          std::move(db))),
      db_(owned_.get()) {
  build_matrices();
  build_slot_index();
}

void CompiledDatabase::build_slot_index() {
  const auto& universe = db_->bssid_universe();
  key_ends_.reserve(universe.size());
  for (const std::string& bssid : universe) {
    keys_ += bssid;
    key_ends_.push_back(static_cast<std::uint32_t>(keys_.size()));
  }
  index_.assign(std::bit_ceil(std::max<std::size_t>(2, 2 * universe.size())),
                IndexCell{});
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = 0; j < universe.size(); ++j) {
    const std::uint64_t h = bssid_hash(universe[j]);
    std::size_t cell = h & mask;
    while (index_[cell].slot != kNoSlot) cell = (cell + 1) & mask;
    index_[cell] = {static_cast<std::uint32_t>(h >> 32),
                    static_cast<std::uint32_t>(j)};
  }
}

void CompiledDatabase::allocate_matrices() {
  points_ = db_->size();
  universe_ = db_->bssid_universe().size();
  stride_ = simd::padded_stride(universe_);
  const std::size_t cells = points_ * stride_;
  mean_ = simd::ZeroedDoubles(cells);
  stddev_ = simd::ZeroedDoubles(cells);
  mask_ = simd::ZeroedDoubles(cells);
  weight_ = simd::ZeroedDoubles(cells);
  trained_count_.assign(points_, 0);
}

void CompiledDatabase::build_matrices() {
  allocate_matrices();
  // Rows are independent; on a campus-sized map the threads filling
  // them are also the first to touch the freshly mapped pages.
  for_each_build_range(
      points_, points_ * stride_, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          trained_count_[p] = compile_row(db_->points()[p], p * stride_);
        }
      });
}

int CompiledDatabase::compile_row(const traindb::TrainingPoint& tp,
                                  std::size_t base) {
  // per_ap and the universe are both sorted by BSSID: one merge
  // interns the whole row.
  const auto& universe = db_->bssid_universe();
  std::size_t j = 0;
  int count = 0;
  for (const traindb::ApStatistics& s : tp.per_ap) {
    while (j < universe_ && universe[j] < s.bssid) ++j;
    if (j == universe_ || universe[j] != s.bssid) continue;
    mean_[base + j] = s.mean_dbm;
    stddev_[base + j] = s.stddev_db;
    mask_[base + j] = 1.0;
    weight_[base + j] = static_cast<double>(s.sample_count);
    ++count;
    ++j;
  }
  return count;
}

CompiledDatabase::CompiledDatabase(traindb::TrainingDatabase&& merged,
                                   const CompiledDatabase& base,
                                   const std::vector<bool>& row_changed)
    : owned_(std::make_shared<const traindb::TrainingDatabase>(
          std::move(merged))),
      db_(owned_.get()) {
  delta_build(base, row_changed);
  build_slot_index();
}

void CompiledDatabase::delta_build(const CompiledDatabase& base,
                                   const std::vector<bool>& row_changed) {
  allocate_matrices();

  // Monotonic old-slot → new-slot remap from one two-pointer pass over
  // the sorted universes. An old BSSID missing from the new universe
  // (its last occurrence was replaced away) maps to kGone; unchanged
  // rows never trained such a slot — if they had, the BSSID would
  // still be in the merged universe — so dropping it copies nothing.
  constexpr std::size_t kGone = static_cast<std::size_t>(-1);
  const auto& old_universe = base.db_->bssid_universe();
  const auto& new_universe = db_->bssid_universe();
  std::vector<std::size_t> new_slot(old_universe.size(), kGone);
  for (std::size_t i = 0, j = 0; i < old_universe.size(); ++i) {
    while (j < new_universe.size() && new_universe[j] < old_universe[i]) {
      ++j;
    }
    if (j < new_universe.size() && new_universe[j] == old_universe[i]) {
      new_slot[i] = j++;
    }
  }

  // Rows are independent here too, so a campus-sized delta faults its
  // freshly mapped pages in on the default pool as well.
  const std::size_t shared_rows = std::min(points_, base.points_);
  for_each_build_range(points_, points_ * stride_, [&](std::size_t lo,
                                                       std::size_t hi) {
    for (std::size_t p = lo; p < hi; ++p) {
      const std::size_t dst = p * stride_;
      if (p >= shared_rows || row_changed[p]) {
        trained_count_[p] = compile_row(db_->points()[p], dst);
        continue;
      }
      // Unchanged row: move its cells under the remap in contiguous
      // runs — a run ends where a slot disappears or the shift between
      // old and new indices changes (an inserted slot between them).
      const std::size_t src = p * base.stride_;
      std::size_t u = 0;
      while (u < old_universe.size()) {
        if (new_slot[u] == kGone) {
          ++u;
          continue;
        }
        const std::size_t run = u;
        const std::size_t shift = new_slot[u] - u;
        while (u < old_universe.size() && new_slot[u] != kGone &&
               new_slot[u] - u == shift) {
          ++u;
        }
        const std::size_t len = u - run;
        const std::size_t from = src + run;
        const std::size_t to = dst + run + shift;
        std::copy_n(base.mean_.data() + from, len, mean_.data() + to);
        std::copy_n(base.stddev_.data() + from, len, stddev_.data() + to);
        std::copy_n(base.mask_.data() + from, len, mask_.data() + to);
        std::copy_n(base.weight_.data() + from, len, weight_.data() + to);
      }
      trained_count_[p] = base.trained_count_[p];
    }
  });
}

std::shared_ptr<const CompiledDatabase> CompiledDatabase::delta_compile(
    const DatabaseDelta& delta) const {
  // Merge semantics (the oracle): replacements land in place, new
  // locations append in upsert order, later upserts for one location
  // win. from_points re-sorts each per-AP list and rebuilds the sorted
  // unique universe, so the merged database is bit-identical to one
  // assembled from scratch out of the same points.
  std::vector<traindb::TrainingPoint> merged_points = db_->points();
  std::vector<bool> row_changed(merged_points.size(), false);
  std::unordered_map<std::string, std::size_t> index_of;
  index_of.reserve(merged_points.size() + delta.upserts.size());
  for (std::size_t p = 0; p < merged_points.size(); ++p) {
    index_of.emplace(merged_points[p].location, p);
  }
  for (const traindb::TrainingPoint& up : delta.upserts) {
    const auto [it, inserted] =
        index_of.emplace(up.location, merged_points.size());
    if (inserted) {
      merged_points.push_back(up);
      row_changed.push_back(true);
    } else {
      merged_points[it->second] = up;
      row_changed[it->second] = true;
    }
  }
  traindb::TrainingDatabase merged = traindb::TrainingDatabase::from_points(
      std::move(merged_points), db_->site_name());
  return std::shared_ptr<const CompiledDatabase>(
      new CompiledDatabase(std::move(merged), *this, row_changed));
}

std::optional<std::uint32_t> CompiledDatabase::slot_of(
    std::string_view bssid) const {
  const std::uint64_t h = bssid_hash(bssid);
  const auto tag = static_cast<std::uint32_t>(h >> 32);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t cell = h & mask;; cell = (cell + 1) & mask) {
    const IndexCell c = index_[cell];
    if (c.slot == kNoSlot) return std::nullopt;
    if (c.tag != tag) continue;
    const std::uint32_t begin = c.slot == 0 ? 0 : key_ends_[c.slot - 1];
    const std::string_view key(keys_.data() + begin,
                               key_ends_[c.slot] - begin);
    if (key == bssid) return c.slot;
  }
}

CompiledObservation CompiledDatabase::compile_observation(
    const Observation& obs) const {
  CompiledObservation q;
  compile_observation_into(obs, &q);
  return q;
}

void CompiledDatabase::compile_observation_into(
    const Observation& obs, CompiledObservation* out) const {
  CompiledObservation& q = *out;
  // Padded to the row stride so the kernels' aligned loads cover the
  // query vectors too; pad cells stay 0.0 / not-present.
  q.mean_dbm.assign(stride_, 0.0);
  q.present.assign(stride_, 0.0);
  q.outside_universe = 0;
  q.total_aps = obs.ap_count();
  q.finite = true;
  q.slots.clear();
  q.samples.clear();
  q.sample_ends.clear();
  q.slots.reserve(obs.ap_count());
  q.sample_ends.reserve(obs.ap_count());
  std::size_t readings = 0;
  for (const ObservedAp& ap : obs.aps()) readings += ap.samples_dbm.size();
  q.samples.reserve(readings);

  const auto& universe = db_->bssid_universe();
  std::size_t j = 0;
  for (const ObservedAp& ap : obs.aps()) {
    if (!std::isfinite(ap.mean_dbm)) q.finite = false;
    while (j < universe_ && universe[j] < ap.bssid) ++j;
    if (j < universe_ && universe[j] == ap.bssid) {
      q.mean_dbm[j] = ap.mean_dbm;
      q.present[j] = 1.0;
      q.slots.push_back(static_cast<std::uint32_t>(j));
      q.samples.insert(q.samples.end(), ap.samples_dbm.begin(),
                       ap.samples_dbm.end());
      q.sample_ends.push_back(static_cast<std::uint32_t>(q.samples.size()));
      ++j;
    } else {
      ++q.outside_universe;
    }
  }
}

}  // namespace loctk::core
