// Per-rank distance-vector storage.
//
// A DvRow is the distance vector of one locally-owned vertex: upper-bound
// distances to every vertex in the (growing) global id space, plus the
// *next hop* of the witness path per entry — the DVR routing-table column
// that makes sound deletion (route poisoning) possible at any RC step.
//
// Each row maintains its running Σ(finite non-self distances) and finite
// count so that an anytime closeness snapshot costs O(local rows), not
// O(local rows × n).
//
// Sparse change tracking: besides the per-entry flag byte, a row keeps two
// compact index lists so the RC hot path never scans the full column range:
//   * dirty list  — columns changed since the last send (kDirty). Send
//     assembly, dirty clearing and checkpoint serialization walk this list,
//     taking per-step cost from O(n) to O(dirty).
//   * reach list  — columns that have ever been finite (kReached).
//     mark-finite-dirty walks this instead of all n columns.
// Both lists are *lazy*: clearing an entry only drops its flag, the column
// id stays in the list until the next compaction (triggered when stale
// entries outnumber live ones). Membership bits (kTracked/kReached) keep
// the lists duplicate-free, so consumers only need to filter on the live
// flag. The fuzz tests in dv_matrix_test.cpp assert list/flag agreement
// under random op sequences.
#pragma once

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace aacc {

/// Per-(shard, row) accumulator for the column-sharded parallel RC drain
/// (DESIGN.md §"Parallel recombination drain"). The per-column fields of a
/// DvRow (distance, next hop, flag byte) are distinct memory locations per
/// column and columns never cross shards, so shards write them in place.
/// Everything row-global — the Σ/finite aggregates, the dirty/reach index
/// lists, the live dirty count — would race, so shard-mode mutators buffer
/// those changes here and DvRow::apply_delta folds them in serially at
/// drain exit, in shard-id order.
struct DvRowDelta {
  std::int64_t sum = 0;        ///< Σ finite-distance change
  std::int64_t finite = 0;     ///< finite-count change
  std::int64_t dirty = 0;      ///< live dirty-bit count change
  std::vector<VertexId> dirty_append;  ///< columns newly tracked (kTracked already set)
  std::vector<VertexId> reach_append;  ///< columns newly reached (kReached already set)
  bool live = false;  ///< registered in the owning shard's touched-row list
};

class DvRow {
 public:
  DvRow(VertexId self, VertexId n) : self_(self) {
    d_.assign(n, kInfDist);
    nh_.assign(n, kNoVertex);
    flags_.assign(n, 0);
    d_[self] = 0;
  }

  /// Reconstructs a migrated row from wire data.
  DvRow(VertexId self, std::vector<Dist> d, std::vector<VertexId> nh)
      : self_(self), d_(std::move(d)), nh_(std::move(nh)) {
    AACC_CHECK(d_.size() == nh_.size());
    flags_.assign(d_.size(), 0);
    recompute_aggregates();
  }

  [[nodiscard]] VertexId self() const { return self_; }
  [[nodiscard]] VertexId size() const { return static_cast<VertexId>(d_.size()); }
  [[nodiscard]] Dist dist(VertexId t) const { return d_[t]; }
  [[nodiscard]] VertexId next_hop(VertexId t) const { return nh_[t]; }
  [[nodiscard]] const std::vector<Dist>& dists() const { return d_; }
  [[nodiscard]] const std::vector<VertexId>& next_hops() const { return nh_; }

  /// Running aggregates over finite non-self entries.
  [[nodiscard]] std::uint64_t finite_sum() const { return sum_; }
  [[nodiscard]] VertexId finite_count() const { return finite_; }

  /// Anytime closeness estimate from the current upper bounds (0 when no
  /// other vertex is known reachable yet).
  [[nodiscard]] double closeness() const {
    return sum_ == 0 ? 0.0 : 1.0 / static_cast<double>(sum_);
  }

  /// Overwrites entry t. Maintains aggregates; does not touch flags.
  void set(VertexId t, Dist nd, VertexId nh) {
    AACC_DCHECK(t != self_ || nd == 0);
    const Dist old = d_[t];
    if (t != self_) {
      if (old != kInfDist) {
        sum_ -= old;
        --finite_;
      }
      if (nd != kInfDist) {
        sum_ += nd;
        ++finite_;
        if ((flags_[t] & kReached) == 0) {
          flags_[t] |= kReached;
          reach_.push_back(t);
        }
      }
    }
    d_[t] = nd;
    nh_[t] = nh;
  }

  /// Shard-mode set(): writes the per-column entry in place but diverts the
  /// aggregate and reach-list changes into `delta`. Safe to run concurrently
  /// with other shards of the same row as long as no two shards share a
  /// column.
  void set_sharded(VertexId t, Dist nd, VertexId nh, DvRowDelta& delta) {
    AACC_DCHECK(t != self_ || nd == 0);
    const Dist old = d_[t];
    if (t != self_) {
      if (old != kInfDist) {
        delta.sum -= static_cast<std::int64_t>(old);
        --delta.finite;
      }
      if (nd != kInfDist) {
        delta.sum += static_cast<std::int64_t>(nd);
        ++delta.finite;
        if ((flags_[t] & kReached) == 0) {
          flags_[t] |= kReached;
          delta.reach_append.push_back(t);
        }
      }
    }
    d_[t] = nd;
    nh_[t] = nh;
  }

  /// Shard-mode mark_dirty(): flips the per-column flag bits in place,
  /// buffers the count change and the index-list append in `delta`. Never
  /// compacts (compaction rewrites the shared list).
  bool mark_dirty_sharded(VertexId t, DvRowDelta& delta) {
    if ((flags_[t] & kDirty) != 0) return false;
    flags_[t] |= kDirty;
    ++delta.dirty;
    if ((flags_[t] & kTracked) == 0) {
      flags_[t] |= kTracked;
      delta.dirty_append.push_back(t);
    }
    return true;
  }

  /// Folds one shard's buffered mutations into the row-global fields and
  /// resets the delta for reuse. Serial only (drain exit); callers iterate
  /// shards in shard-id order so the merged list contents are deterministic.
  /// Every buffered id still holds its dirty bit (nothing clears flags
  /// during a drain), so the post-append compaction check cannot drop them.
  void apply_delta(DvRowDelta& delta) {
    sum_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(sum_) +
                                      delta.sum);
    finite_ = static_cast<VertexId>(static_cast<std::int64_t>(finite_) +
                                    delta.finite);
    dirty_count_ = static_cast<VertexId>(
        static_cast<std::int64_t>(dirty_count_) + delta.dirty);
    dirty_.insert(dirty_.end(), delta.dirty_append.begin(),
                  delta.dirty_append.end());
    reach_.insert(reach_.end(), delta.reach_append.begin(),
                  delta.reach_append.end());
    maybe_compact_dirty();
    delta.sum = 0;
    delta.finite = 0;
    delta.dirty = 0;
    delta.dirty_append.clear();
    delta.reach_append.clear();
    delta.live = false;
  }

  /// Appends `count` new (unreachable) columns, reserving geometrically so
  /// a stream of vertex-addition batches does not reallocate per batch.
  void grow(VertexId count) {
    const std::size_t need = d_.size() + count;
    if (need > d_.capacity()) {
      const std::size_t cap = std::max(need, 2 * d_.size());
      d_.reserve(cap);
      nh_.reserve(cap);
      flags_.reserve(cap);
    }
    d_.insert(d_.end(), count, kInfDist);
    nh_.insert(nh_.end(), count, kNoVertex);
    flags_.insert(flags_.end(), count, 0);
  }

  /// Resident-memory footprint of this row (capacity-based, including the
  /// sparse index lists) — the unit the tiered store's budget is charged
  /// in (DESIGN.md §"Tiered DV storage").
  [[nodiscard]] std::size_t footprint_bytes() const {
    return sizeof(DvRow) + d_.capacity() * sizeof(Dist) +
           nh_.capacity() * sizeof(VertexId) + flags_.capacity() +
           (dirty_.capacity() + reach_.capacity()) * sizeof(VertexId);
  }

  /// Releases slack capacity (columns and index lists). Called after a
  /// repartition rebuilt the row set: the geometric growth headroom of the
  /// pre-migration era is dead weight on the new owner.
  void shrink_to_fit() {
    compact_dirty();
    compact_reach();
    d_.shrink_to_fit();
    nh_.shrink_to_fit();
    flags_.shrink_to_fit();
    dirty_.shrink_to_fit();
    reach_.shrink_to_fit();
  }

  /// sorted_dirty() scans the flags instead of sorting the list once the
  /// list holds at least 1/kDenseDirtyScan of the columns. Measured on
  /// shuffled lists, the scan overtakes the sort between 1/16 and 1/8 of
  /// n at 3k columns, near 1/32 at 50k and near 1/64 at 400k, and wins up
  /// to ~100x on full rows. 16 costs at most ~20% on small rows and keeps
  /// most of the gain on large ones. Purely a performance knob: both paths
  /// return the same list.
  static constexpr std::size_t kDenseDirtyScan = 16;

  // Entry flags used by the rank engine.
  static constexpr std::uint8_t kDirty = 1;    ///< changed since last send
  static constexpr std::uint8_t kQueued = 2;   ///< in the relaxation worklist
  // Internal membership bits for the sparse index lists (not for engine use).
  static constexpr std::uint8_t kTracked = 4;  ///< column id is in dirty_
  static constexpr std::uint8_t kReached = 8;  ///< column id is in reach_

  [[nodiscard]] bool test_flag(VertexId t, std::uint8_t bit) const {
    return (flags_[t] & bit) != 0;
  }
  void set_flag(VertexId t, std::uint8_t bit) { flags_[t] |= bit; }
  void clear_flag(VertexId t, std::uint8_t bit) {
    flags_[t] &= static_cast<std::uint8_t>(~bit);
  }

  /// Marks entry t as changed-since-last-send. Returns true if it was clean.
  bool mark_dirty(VertexId t) {
    if ((flags_[t] & kDirty) != 0) return false;
    flags_[t] |= kDirty;
    ++dirty_count_;
    if ((flags_[t] & kTracked) == 0) {
      flags_[t] |= kTracked;
      maybe_compact_dirty();
      dirty_.push_back(t);
    }
    return true;
  }
  /// Clears the dirty bit. Returns true if it was set. The column stays in
  /// the index list as a stale entry until the next compaction.
  bool clear_dirty(VertexId t) {
    if ((flags_[t] & kDirty) == 0) return false;
    flags_[t] &= static_cast<std::uint8_t>(~kDirty);
    --dirty_count_;
    return true;
  }
  [[nodiscard]] VertexId dirty_count() const { return dirty_count_; }

  /// Clears every dirty bit by walking the sparse list — O(dirty), not
  /// O(n). Returns the number of live entries cleared. When `cleared_cols`
  /// is non-null, the live columns are appended to it — the pipelined
  /// exchange records them so an aborted collective can re-mark its
  /// pending sends before the recovery stash is taken.
  VertexId clear_all_dirty(std::vector<VertexId>* cleared_cols = nullptr) {
    for (const VertexId t : dirty_) {
      if (cleared_cols != nullptr && (flags_[t] & kDirty) != 0) {
        cleared_cols->push_back(t);
      }
      flags_[t] &= static_cast<std::uint8_t>(~(kDirty | kTracked));
    }
    dirty_.clear();
    const VertexId cleared = dirty_count_;
    dirty_count_ = 0;
    return cleared;
  }

  /// Fills `out` with the currently dirty columns in ascending order
  /// (stale list entries are filtered out). A sparse list is filtered and
  /// sorted, O(dirty log dirty); a dense one (after IA nearly every finite
  /// column is dirty) is read off the flags in one ascending scan, O(n).
  /// Both yield the same list, so the switch cannot change any byte sent.
  void sorted_dirty(std::vector<VertexId>& out) const {
    if (dirty_.size() * kDenseDirtyScan >= d_.size()) {
      // Branch-free append: every column is stored, only live ones advance
      // the cursor. Every live column is tracked in dirty_, so its length
      // bounds the cursor and one spare slot takes the trailing store.
      out.resize(dirty_.size() + 1);
      std::size_t k = 0;
      for (VertexId t = 0; t < size(); ++t) {
        out[k] = t;
        k += flags_[t] & kDirty;
      }
      out.resize(k);
      return;
    }
    out.clear();
    for (const VertexId t : dirty_) {
      if ((flags_[t] & kDirty) != 0) out.push_back(t);
    }
    std::sort(out.begin(), out.end());
  }

  /// Calls fn(t) for every finite non-self column, walking the reach list
  /// instead of the full column range — O(ever-finite), not O(n).
  template <typename Fn>
  void for_each_finite(Fn&& fn) const {
    for (const VertexId t : reach_) {
      if (d_[t] != kInfDist) fn(t);
    }
  }

  /// Clears every flag (dirty + queued) and the dirty list. Reachability
  /// bookkeeping survives: the distances themselves are untouched, so the
  /// reach list must keep describing them. Used when a row survives a
  /// repartition in place: the new ownership invalidates send/queue state.
  void reset_flags() {
    for (std::uint8_t& f : flags_) f &= kReached;
    dirty_.clear();
    dirty_count_ = 0;
  }

 private:
  void recompute_aggregates() {
    sum_ = 0;
    finite_ = 0;
    for (VertexId t = 0; t < d_.size(); ++t) {
      if (t != self_ && d_[t] != kInfDist) {
        sum_ += d_[t];
        ++finite_;
        flags_[t] |= kReached;
        reach_.push_back(t);
      }
    }
  }

  /// Drops stale ids once they outnumber live ones (amortized O(1) per op).
  void maybe_compact_dirty() {
    if (dirty_.size() > 2 * static_cast<std::size_t>(dirty_count_) + 8) {
      compact_dirty();
    }
  }
  void compact_dirty() {
    std::size_t keep = 0;
    for (const VertexId t : dirty_) {
      if ((flags_[t] & kDirty) != 0) {
        dirty_[keep++] = t;
      } else {
        flags_[t] &= static_cast<std::uint8_t>(~kTracked);
      }
    }
    dirty_.resize(keep);
  }
  void compact_reach() {
    std::size_t keep = 0;
    for (const VertexId t : reach_) {
      if (d_[t] != kInfDist) {
        reach_[keep++] = t;
      } else {
        flags_[t] &= static_cast<std::uint8_t>(~kReached);
      }
    }
    reach_.resize(keep);
  }

  VertexId self_;
  std::vector<Dist> d_;
  std::vector<VertexId> nh_;
  std::vector<std::uint8_t> flags_;
  std::vector<VertexId> dirty_;  ///< sparse dirty index list (may hold stale ids)
  std::vector<VertexId> reach_;  ///< columns ever finite (may hold stale ids)
  std::uint64_t sum_ = 0;
  VertexId finite_ = 0;
  VertexId dirty_count_ = 0;
};

}  // namespace aacc
