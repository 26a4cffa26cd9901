#include "core/rank_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <numeric>
#include <queue>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "analysis/closeness.hpp"
#include "analysis/quality.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/strategies.hpp"
#include "partition/multilevel.hpp"
#include "runtime/serialize.hpp"

namespace aacc {

namespace {

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Checkpoint blob magic/version constants live in core/checkpoint.hpp
// (shared with validate_checkpoint).

struct HeapItem {
  Dist d;
  VertexId v;
  friend bool operator>(const HeapItem& a, const HeapItem& b) { return a.d > b.d; }
};

}  // namespace

namespace {
const std::vector<std::tuple<VertexId, VertexId, Weight>> kNoEdges;
}

RankEngine::RankEngine(const Init& init, rt::Comm& comm)
    : comm_(comm),
      cfg_(init.cfg),
      schedule_(init.schedule),
      start_step_(init.start_step),
      start_batch_(init.start_batch),
      checkpoint_slot_(init.checkpoint_slot),
      periodic_(init.periodic),
      injector_(init.injector),
      ghost_(init.ghost),
      cur_step_(init.start_step),
      cur_batch_(init.start_batch),
      // A ghost impersonates a dead rank in the collectives but owns no
      // rows: its LocalGraph `me` is an impossible rank, so is_local() is
      // false for every vertex and num_local() == 0.
      lg_(init.ghost ? static_cast<Rank>(init.world) : init.me,
          init.restore_blob != nullptr ? std::vector<Rank>{} : init.owner,
          init.restore_blob != nullptr ? kNoEdges : *init.edges) {
  if (init.tracer != nullptr) {
    tracer_ = init.tracer;
    trace_ = &tracer_->track(init.me);
  }
  progress_active_ = cfg_.progress.active();
  progress_ = init.progress;
  if (init.metrics != nullptr) {
    metrics_ = init.metrics;
    m_relaxations_ = &metrics_->counter("rc/relaxations");
    m_poisons_ = &metrics_->counter("rc/poisons");
    m_repairs_ = &metrics_->counter("rc/repairs");
    m_steps_ = &metrics_->counter("rc/steps");
    m_drain_cpu_ = &metrics_->gauge("drain/cpu_seconds");
    m_drain_modeled_ = &metrics_->gauge("drain/modeled_seconds");
    m_queue_depth_ = &metrics_->histogram("rc/drain_queue_depth");
    m_exch_wait_ = &metrics_->gauge("exchange/wait_seconds");
    m_exch_inflight_ = &metrics_->histogram("exchange/inflight_depth");
    m_dv_resident_ = &metrics_->gauge("dv/resident_bytes");
    m_dv_cold_ = &metrics_->gauge("dv/cold_bytes");
    m_dv_promotions_ = &metrics_->counter("dv/promotions");
    m_dv_demotions_ = &metrics_->counter("dv/demotions");
    m_dv_decode_ = &metrics_->gauge("dv/decode_seconds");
  }
  serve_ = init.serve;
  if (serve_ != nullptr && metrics_ != nullptr) {
    m_serve_publishes_ = &metrics_->counter("serve/publishes");
    m_serve_publish_seconds_ = &metrics_->gauge("serve/publish_seconds");
    // Rank 0 samples the fleet-wide snapshot age each progress fold.
    if (init.me == 0) {
      m_serve_age_ = &metrics_->histogram("serve/snapshot_age_steps");
    }
  }
  assign_skip_ = init.assign_skip;
  recovery_mark_step_ = init.recovery_mark_step;
  recovery_mark_ = init.recovery_mark;
  dv_ = DvStore::create(cfg_.dv_budget_bytes);
  if (init.restore_blob != nullptr) {
    const obs::ScopedSpan span(trace_, "restore");
    restore_state(*init.restore_blob);
    if (init.adopt != nullptr) adopt_shards(init);
  } else {
    dv_->grow_columns(lg_.n());
    for (std::size_t r = 0; r < lg_.num_local(); ++r) {
      dv_->append_fresh(lg_.vertex_of(r));
    }
    vertices_added_ = init.start_vertices_added;
  }
  if (!init.poison_ranks.empty()) {
    // Degraded restart: the rows these ranks owned are gone, so every
    // portal-cache value they published is a dead witness. Poison the
    // cached entries; the cascade invalidates every local entry routed
    // through them and queues repairs over surviving routes.
    std::vector<bool> dead(static_cast<std::size_t>(init.world), false);
    for (const Rank d : init.poison_ranks) {
      dead[static_cast<std::size_t>(d)] = true;
    }
    const auto& owner = lg_.owner_map();
    for (const auto& [portal, adj] : lg_.portals()) {
      if (!dead[static_cast<std::size_t>(owner[portal])]) continue;
      const auto it = caches_.find(portal);
      if (it == caches_.end()) continue;
      const PortalView pv{portal, it->second, adj};
      for (VertexId t = 0; t < static_cast<VertexId>(pv.cache.size()); ++t) {
        if (pv.cache[t] != kInfDist) apply_portal_value(pv, t, kInfDist);
      }
    }
  }
}

// ------------------------------------------------------ checkpoint/restore

void RankEngine::serialize_state(rt::ByteWriter& w) const {
  // v2 header; restore_state also accepts legacy headerless v1 blobs.
  w.write(kCkptMagic0);
  w.write(kCkptMagic1);
  w.write(kCkptVersion2);
  // Topology view: owner map + this rank's locally incident edges (each
  // edge once from this rank's perspective; the LocalGraph constructor
  // rebuilds both half-edges and the portal index).
  w.write_vec(lg_.owner_map());
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    const VertexId u = lg_.vertex_of(r);
    for (const Edge& e : lg_.adj(r)) {
      if (!lg_.is_local(e.to) || u < e.to) edges.emplace_back(u, e.to, e.w);
    }
  }
  w.write(static_cast<std::uint64_t>(edges.size()));
  for (const auto& [u, v, wt] : edges) {
    w.write(u);
    w.write(v);
    w.write(wt);
  }
  // DV rows (varint-packed: distances/next hops are small or the sentinel),
  // including un-sent dirty targets (they must survive a restart or
  // subscribers would permanently miss the pending updates/poisons). Cold
  // rows transcode straight from the compressed form — byte-identical to
  // the hot path, so checkpoint cost tracks residency, not n
  // (DvStore::serialize_row).
  w.write(static_cast<std::uint64_t>(dv_->size()));
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    dv_->serialize_row(r, w);
  }
  // Portal caches.
  w.write(static_cast<std::uint64_t>(caches_.size()));
  for (const auto& [portal, cache] : caches_) {
    w.write(portal);
    rt::write_packed_u32s(w, cache);
  }
  w.write(vertices_added_);
}

void RankEngine::restore_state(std::span<const std::byte> blob) {
  try {
    restore_state_impl(blob);
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::logic_error& e) {
    // The bounds-checked reader reports truncation/corruption as
    // logic_error ("message underflow" etc.); re-raise with rank context
    // as the typed restore failure.
    throw CheckpointError("rank " + std::to_string(comm_.rank()) +
                          " checkpoint blob is malformed: " + e.what());
  }
}

void RankEngine::restore_state_impl(std::span<const std::byte> blob) {
  const bool v2 = blob.size() >= 3 &&
                  std::to_integer<std::uint8_t>(blob[0]) == kCkptMagic0 &&
                  std::to_integer<std::uint8_t>(blob[1]) == kCkptMagic1;
  if (blob.size() >= 2 && !v2 &&
      std::to_integer<std::uint8_t>(blob[0]) == kCkptMagic0 &&
      std::to_integer<std::uint8_t>(blob[1]) == kCkptMagic1) {
    throw CheckpointError("checkpoint blob truncated inside the header");
  }
  if (v2 && std::to_integer<std::uint8_t>(blob[2]) != kCkptVersion2) {
    throw CheckpointError(
        "unknown checkpoint version " +
        std::to_string(std::to_integer<std::uint8_t>(blob[2])));
  }
  rt::ByteReader r(v2 ? blob.subspan(3) : blob);

  auto owner = r.read_vec<Rank>();
  const auto edge_count = r.read<std::uint64_t>();
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  edges.reserve(edge_count);
  for (std::uint64_t i = 0; i < edge_count; ++i) {
    const auto u = r.read<VertexId>();
    const auto v = r.read<VertexId>();
    const auto wt = r.read<Weight>();
    edges.emplace_back(u, v, wt);
  }
  lg_ = LocalGraph(comm_.rank(), std::move(owner), edges);

  const auto row_count = r.read<std::uint64_t>();
  AACC_CHECK(row_count == lg_.num_local());
  dv_->clear();
  dv_->grow_columns(lg_.n());
  // Rows must sit at their LocalGraph row index; fresh slots are installed
  // first (cheap: one cold entry under the tiered store) and each decoded
  // record lands at row_of(vid).
  for (std::size_t i = 0; i < lg_.num_local(); ++i) {
    dv_->append_fresh(lg_.vertex_of(i));
  }
  const bool tiered = cfg_.dv_budget_bytes != 0;
  for (std::uint64_t i = 0; i < row_count; ++i) {
    const auto vid = r.read<VertexId>();
    auto d = v2 ? rt::read_packed_u32s(r) : r.read_vec<Dist>();
    auto nh = v2 ? rt::read_packed_u32s(r) : r.read_vec<VertexId>();
    auto dirty = v2 ? rt::read_ascending_ids(r) : r.read_vec<VertexId>();
    const std::int32_t ri = lg_.row_of(vid);
    AACC_CHECK(ri >= 0);
    dirty_entries_ += dirty.size();
    if (tiered) {
      // Restore fast path: straight into the compressed form — demoted
      // rows never round-trip through a dense DvRow.
      dv_->put_cold(static_cast<std::size_t>(ri),
                    encode_cold_row(vid, d, nh, std::move(dirty)));
    } else {
      DvRow row(vid, std::move(d), std::move(nh));
      for (const VertexId t : dirty) row.mark_dirty(t);
      dv_->put(static_cast<std::size_t>(ri), std::move(row));
    }
  }

  const auto cache_count = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < cache_count; ++i) {
    const auto portal = r.read<VertexId>();
    caches_[portal] = v2 ? rt::read_packed_u32s(r) : r.read_vec<Dist>();
  }
  vertices_added_ = r.read<std::uint64_t>();
  if (!r.done()) {
    throw CheckpointError("trailing bytes in checkpoint blob");
  }

  // Re-arm the local queues from the restored dirty flags. On a quiesced
  // checkpoint the worklist entries are no-ops (the values are already at
  // their fixpoint), but a crash-time stash may hold changes whose *local*
  // propagation was lost with the dying step: finite dirty entries re-enter
  // the relaxation worklist, poison markers re-enter the deferred-repair
  // queue (they run after the next poison barrier drains, as always).
  std::vector<VertexId> dirty_cols;
  std::vector<std::pair<VertexId, Dist>> dirty_entries;
  for (std::size_t ri = 0; ri < dv_->size(); ++ri) {
    if (dv_->dirty_count(ri) == 0) continue;
    dirty_cols.clear();
    dirty_entries.clear();
    dv_->collect_dirty_entries(ri, dirty_cols, dirty_entries);
    const VertexId x = dv_->self(ri);
    for (const auto& [t, d] : dirty_entries) {
      if (d == kInfDist) {
        // The marker itself goes out with the next exchange() (it is still
        // dirty); the repair then runs at that step's drain, after the
        // barrier — the same ordering an undisturbed run follows. The
        // pending-poison flag is re-armed too: the stash may have been taken
        // after the flag was folded into an aborted barrier round, and
        // without it the restarted barrier could run zero rounds and let
        // repairs re-derive from peers' still-unsettled entries.
        poison_pending_ = true;
        repairs_.emplace_back(x, t);
      } else {
        // A finite dirty entry needs its kQueued flag: promote and re-arm.
        DvRow& row = dv_->row(ri);
        if (!row.test_flag(t, DvRow::kQueued)) {
          row.set_flag(t, DvRow::kQueued);
          worklist_.emplace_back(x, t);
        }
      }
    }
  }
}

// --------------------------------------------------------------- adoption

namespace {

/// Topology prefix of a checkpoint blob: owner map (discarded — the stash
/// map is newer) and the snapshotted edge list. Rows, caches and cursors
/// are deliberately not parsed: adoption consumes structure only, because
/// post-snapshot deletions can make snapshot *values* stale-low (the dead
/// rank's poison broadcasts for them completed before the crash, so
/// re-installing the old finite values would silently revoke them).
std::vector<std::tuple<VertexId, VertexId, Weight>> read_blob_edges(
    std::span<const std::byte> blob) {
  const bool v2 = blob.size() >= 3 &&
                  std::to_integer<std::uint8_t>(blob[0]) == kCkptMagic0 &&
                  std::to_integer<std::uint8_t>(blob[1]) == kCkptMagic1;
  rt::ByteReader r(v2 ? blob.subspan(3) : blob);
  (void)r.read_vec<Rank>();  // snapshot-time owner map, superseded
  const auto edge_count = r.read<std::uint64_t>();
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  edges.reserve(edge_count);
  for (std::uint64_t i = 0; i < edge_count; ++i) {
    const auto u = r.read<VertexId>();
    const auto v = r.read<VertexId>();
    const auto wt = r.read<Weight>();
    edges.emplace_back(u, v, wt);
  }
  return edges;
}

std::uint64_t edge_key(VertexId u, VertexId v) {
  const VertexId a = std::min(u, v);
  const VertexId b = std::max(u, v);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

void RankEngine::adopt_shards(const Init& init) {
  const obs::ScopedSpan span(trace_, "adopt", "sources",
                             init.adopt->sources.size());
  adopted_ = true;  // recovery provenance, stamped into published snapshots
  // The rewritten owner map rides in init.owner (the one field the restore
  // path ignores); its tombstones come from the stash map, so is_alive
  // stays authoritative for everything below.
  const std::vector<Rank>& new_owner = init.owner;
  const auto alive = [&](VertexId v) { return new_owner[v] != kNoRank; };

  // 1. Merge edge sets: this rank's live incident edges first (current as
  //    of the crash), then each dead rank's snapshot edges. First wins on
  //    the unordered pair — snapshot weights may be stale, and the replay
  //    below re-asserts every post-snapshot change anyway. Edges into
  //    vertices tombstoned after the snapshot are dropped.
  std::vector<std::tuple<VertexId, VertexId, Weight>> merged;
  std::unordered_set<std::uint64_t> seen;
  const auto push = [&](VertexId u, VertexId v, Weight w) {
    if (!alive(u) || !alive(v)) return;
    if (seen.insert(edge_key(u, v)).second) merged.emplace_back(u, v, w);
  };
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    const VertexId u = lg_.vertex_of(r);
    for (const Edge& e : lg_.adj(r)) {
      if (!lg_.is_local(e.to) || u < e.to) push(u, e.to, e.w);
    }
  }
  for (const auto& [source, blob] : init.adopt->sources) {
    (void)source;
    for (const auto& [u, v, w] : read_blob_edges(*blob)) push(u, v, w);
  }

  // 2. Rebuild the topology under the rewritten map. Surviving rows are
  //    re-placed below; the constructor recomputes portals/subscriptions
  //    for the new ownership. The crash-time owner map is kept around for
  //    step 6: caches of dead-owned portals must go.
  const std::vector<Rank> old_owner = lg_.owner_map();
  // Extraction promotes every surviving row: adoption is a rare, whole-rank
  // rebuild, and the migrated rows re-enter residency as hot until the next
  // maintain() pass demotes the settled ones again.
  std::vector<DvRow> kept;
  kept.reserve(dv_->size());
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    kept.push_back(dv_->take(r));
  }
  dv_->clear();
  lg_ = LocalGraph(comm_.rank(), new_owner, merged);

  // 3. Structural journal replay: every batch since the oldest snapshot,
  //    in order, idempotently. Edges between two dead-owned vertices added
  //    after the snapshot exist in no blob and no stash — only here.
  //    Vertex adds/deletes are already reflected in the stash owner map;
  //    only their edge payloads need re-asserting.
  if (schedule_ != nullptr) {
    const auto replay_edge_add = [&](VertexId u, VertexId v, Weight w) {
      if (!alive(u) || !alive(v)) return;
      if (!lg_.is_local(u) && !lg_.is_local(v)) return;
      if (!lg_.has_edge(u, v)) lg_.add_edge(u, v, w);
    };
    for (std::size_t b = init.adopt->replay_from_batch;
         b < start_batch_ && b < schedule_->size(); ++b) {
      for (const Event& ev : (*schedule_)[b].events) {
        if (const auto* ea = std::get_if<EdgeAddEvent>(&ev)) {
          replay_edge_add(ea->u, ea->v, ea->w);
        } else if (const auto* ed = std::get_if<EdgeDeleteEvent>(&ev)) {
          if (lg_.has_edge(ed->u, ed->v)) lg_.remove_edge(ed->u, ed->v);
        } else if (const auto* wc = std::get_if<WeightChangeEvent>(&ev)) {
          if (lg_.has_edge(wc->u, wc->v)) {
            lg_.set_weight(wc->u, wc->v, wc->w_new);
          }
        } else if (const auto* va = std::get_if<VertexAddEvent>(&ev)) {
          for (const auto& [to, w] : va->edges) {
            replay_edge_add(va->id, to, w);
          }
        }
        // VertexDeleteEvent: the tombstone is in the stash owner map and
        // its incident edges were filtered by alive() above — nothing to do.
      }
    }
  }

  // 4. Re-place surviving rows at their new indices; adopted vertices get
  //    fresh all-infinity rows — the quiet poison. Snapshot values are
  //    never installed, so nothing stale-low can enter; re-derivation
  //    rebuilds exactly the values the survivors can currently justify.
  dv_->grow_columns(lg_.n());
  std::vector<bool> is_adopted(lg_.num_local(), true);
  for (std::size_t r = 0; r < lg_.num_local(); ++r) {
    dv_->append_fresh(lg_.vertex_of(r));
  }
  dirty_entries_ = 0;
  for (DvRow& row : kept) {
    const std::int32_t ri = lg_.row_of(row.self());
    AACC_CHECK_MSG(ri >= 0, "adoption moved a surviving rank's own vertex");
    is_adopted[static_cast<std::size_t>(ri)] = false;
    dirty_entries_ += row.dirty_count();
    dv_->put(static_cast<std::size_t>(ri), std::move(row));
  }

  // 5. Queue the quiet re-derivation of every adopted entry: repairs pull
  //    from local neighbour rows immediately and from portal caches as
  //    they repopulate. No poison markers are broadcast — the graph did
  //    not change, so every remote finite value is still a sound upper
  //    bound and nothing needs invalidating elsewhere.
  std::size_t adopted_rows = 0;
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    if (!is_adopted[r]) continue;
    ++adopted_rows;
    const VertexId v = lg_.vertex_of(r);
    for (VertexId t = 0; t < lg_.n(); ++t) {
      if (t != v && alive(t)) repairs_.emplace_back(v, t);
    }
  }

  // 6. Drop caches the ownership change invalidated: vertices this rank
  //    now owns and ex-portals no cut edge reaches any more. Live-owned
  //    portal caches are kept: their owners survived with their poison
  //    state intact, so the values are genuine upper bounds repairs may
  //    re-derive through. Dead-owned caches are NOT erased here — they are
  //    the subscriber-side baseline apply_portal_value compares against to
  //    detect increases, so step 6b poisons through them instead.
  for (auto it = caches_.begin(); it != caches_.end();) {
    if (lg_.is_local(it->first) || !lg_.is_portal(it->first)) {
      it = caches_.erase(it);
    } else {
      ++it;
    }
  }

  // 6b. Loud poison for the torn-batch window. The quiet-poison argument
  //    in step 5 has one hole: if the crash step had already ingested a
  //    change batch with non-monotone events (deletes, weight changes),
  //    the dead owner died before sending the poison markers that batch
  //    obliged it to send. Any survivor entry whose witness chain runs
  //    through a dead-owned vertex may then be stale *low* — the one
  //    direction the anytime property cannot absorb, and undetectable
  //    locally because caches hold distances, not paths. The fix is to
  //    act as the dead owner's executor: poison every entry routed
  //    through a dead-owned vertex, exactly as if it had broadcast
  //    all-infinity markers. poison_entry re-queues repairs and arms the
  //    poison barrier, and the cascade crosses ranks via the usual dirty
  //    markers, so transitive dependents settle in the restarted barrier.
  //    Monotone re-derivation converges to the same fixed point, so this
  //    costs work, never exactness. At settled step boundaries (or when
  //    the crash-step batches were add-only) the hazard cannot exist and
  //    the quiet path stands.
  bool torn_hazard = false;
  if (schedule_ != nullptr) {
    for (std::size_t b = 0; b < start_batch_ && b < schedule_->size(); ++b) {
      if ((*schedule_)[b].at_step != start_step_) continue;
      for (const Event& ev : (*schedule_)[b].events) {
        if (std::holds_alternative<EdgeDeleteEvent>(ev) ||
            std::holds_alternative<WeightChangeEvent>(ev) ||
            std::holds_alternative<VertexDeleteEvent>(ev)) {
          torn_hazard = true;
        }
      }
    }
  }
  if (torn_hazard) {
    std::deque<std::pair<VertexId, VertexId>> seeds;
    for (VertexId v = 0; v < lg_.n(); ++v) {
      const Rank o = v < old_owner.size() ? old_owner[v] : kNoRank;
      if (std::find(init.assign_skip.begin(), init.assign_skip.end(), o) ==
          init.assign_skip.end()) {
        continue;
      }
      const auto it = caches_.find(v);
      if (it != caches_.end()) {
        std::fill(it->second.begin(), it->second.end(), kInfDist);
      }
      for (VertexId t = 0; t < lg_.n(); ++t) seeds.emplace_back(v, t);
    }
    poison_cascade(std::move(seeds));
  }

  // 7. Every boundary row re-publishes its finite entries: subscriptions
  //    were rewired (adopters subscribe to portals they never saw, and
  //    survivors' rows now feed adopters' empty caches), mirroring the
  //    repartition path's re-subscription flush.
  std::vector<Rank> subs;
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    subs.clear();
    lg_.subscribers(r, subs);
    if (!subs.empty()) mark_finite_dirty(r);
  }
  if (trace_ != nullptr) {
    trace_->instant("adopt:rows", "count",
                    static_cast<std::uint64_t>(adopted_rows));
  }
  if (metrics_ != nullptr) {
    metrics_->counter("recovery/adopted_rows").add(adopted_rows);
  }
}

// --------------------------------------------------------------------- IA

void RankEngine::ia_source(std::size_t r, std::vector<Dist>& dist,
                           std::vector<VertexId>& hop,
                           std::vector<VertexId>& touched,
                           std::uint64_t& dirty_added) {
  const VertexId src = lg_.vertex_of(r);
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> pq;
  dist[src] = 0;
  touched.push_back(src);
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    // Portals are reachable leaves: they get a distance but are not
    // expanded (paths *through* an external boundary vertex are
    // resolved during recombination, which keeps next-hop chains
    // locally sound — see DESIGN.md).
    const std::int32_t urow = lg_.row_of(u);
    if (urow < 0) continue;
    for (const Edge& e : lg_.adj(static_cast<std::size_t>(urow))) {
      const Dist nd = dist_add(d, e.w);
      if (nd < dist[e.to]) {
        if (dist[e.to] == kInfDist) touched.push_back(e.to);
        dist[e.to] = nd;
        hop[e.to] = (u == src) ? e.to : hop[u];
        pq.push({nd, e.to});
      }
    }
  }
  // The store installs the sweep result; the tiered implementation encodes
  // fresh rows straight into cold form so the sweep never materializes a
  // dense O(n) row per source.
  dirty_added += dv_->install_ia(r, src, touched, dist, hop);
  for (const VertexId t : touched) {
    dist[t] = kInfDist;
    hop[t] = kNoVertex;
  }
  touched.clear();
}

std::size_t RankEngine::ia_thread_count() const {
  if (cfg_.ia_threads != 0) return cfg_.ia_threads;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto ranks = static_cast<unsigned>(std::max<Rank>(comm_.size(), 1));
  return std::clamp<std::size_t>(hw / ranks, 1, 8);
}

void RankEngine::run_ia() {
  comm_.set_phase("ia");
  const obs::ScopedSpan span(trace_, "ia", "rows", dv_->size());
  const VertexId n = lg_.n();

  // The paper runs a multithreaded Dijkstra here (its MPI+OpenMP hybrid:
  // O(n_p * m_p log n_p / T) per rank). Sources are disjoint rows, so they
  // fan out across an intra-rank pool with per-thread scratch; each row is
  // written by exactly one worker and per-row dirty counters merge in row
  // order afterwards, so rows, counters and ledgers are bit-identical to
  // the serial path for any thread count.
  std::vector<std::uint64_t> dirty_added(dv_->size(), 0);
  std::atomic<std::size_t> cursor{0};
  constexpr std::size_t kChunk = 8;
  const std::size_t threads = std::min(ia_thread_count(), dv_->size());
  run_workers(threads, [&](std::size_t w) {
    // One span per worker on its shard subtrack (chunk assignment races,
    // but a single begin/end pair per worker stays deterministic).
    const obs::ScopedSpan wspan(
        tracer_ != nullptr ? &tracer_->subtrack(comm_.rank(), w) : nullptr,
        "ia_shard");
    // Scratch reused across this worker's sources; `touched` resets only
    // what a source actually visited.
    std::vector<Dist> dist(n, kInfDist);
    std::vector<VertexId> hop(n, kNoVertex);
    std::vector<VertexId> touched;
    touched.reserve(n);
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= dv_->size()) break;
      const std::size_t end = std::min(begin + kChunk, dv_->size());
      for (std::size_t r = begin; r < end; ++r) {
        ia_source(r, dist, hop, touched, dirty_added[r]);
      }
    }
  });
  for (const std::uint64_t d : dirty_added) dirty_entries_ += d;
  if (metrics_ != nullptr) {
    std::uint64_t total = 0;
    for (const std::uint64_t d : dirty_added) total += d;
    metrics_->counter("ia/dirty_entries").add(total);
  }
  // Residency pass before the first RC step: under a tiered budget the
  // freshly swept rows settle into cold form until RC dirties them.
  maintain_store();
  // Live sessions get their first queryable snapshot the moment IA lands:
  // the intra-rank estimates are the paper's anytime starting point.
  if (serve_ != nullptr) {
    publish_snapshot(start_step_);
    if (comm_.rank() == 0) {
      serve_->engine_step.store(start_step_, std::memory_order_release);
    }
  }
  // First progress event: the local APSP sweep is done, coverage is the
  // intra-rank reachability (collective; run_ia is only called on fresh
  // attempts, where every rank takes this path).
  progress_step("ia", start_step_);
}

// ------------------------------------------------------ relaxation kernel

#ifdef AACC_WATCH
static void watch(const char* what, Rank rank, VertexId x, VertexId t, Dist d,
                  VertexId nh) {
  static const long wx = std::getenv("WX") ? std::atol(std::getenv("WX")) : -1;
  static const long wt = std::getenv("WT") ? std::atol(std::getenv("WT")) : -1;
  if (static_cast<long>(x) == wx && static_cast<long>(t) == wt) {
    std::fprintf(stderr, "[watch r%d] %s (%u,%u) d=%d nh=%d\n", rank, what, x,
                 t, d == kInfDist ? -1 : static_cast<int>(d),
                 nh == kNoVertex ? -1 : static_cast<int>(nh));
  }
}
#define AACC_WATCH_HIT(what, x, t, d, nh) watch(what, comm_.rank(), x, t, d, nh)
#else
#define AACC_WATCH_HIT(what, x, t, d, nh)
#endif

RankEngine::ShardCtx RankEngine::serial_ctx() {
  ShardCtx ctx;
  ctx.worklist = &worklist_;
  ctx.repairs = &repairs_;
  ctx.relaxations = &relaxations_;
  ctx.dirty_entries = &dirty_entries_;
  ctx.repairs_run = &repair_count_;
  return ctx;
}

void RankEngine::relax(VertexId x, VertexId t, Dist nd, VertexId nh) {
  ShardCtx ctx = serial_ctx();
  relax(ctx, x, t, nd, nh);
}

void RankEngine::relax(ShardCtx& ctx, VertexId x, VertexId t, Dist nd,
                       VertexId nh) {
  if (nd == kInfDist || !lg_.is_alive(t)) return;
  const std::int32_t ri = lg_.row_of(x);
  AACC_DCHECK(ri >= 0);
  DvRow& row = dv_->row(static_cast<std::size_t>(ri));
  if (row.dist(t) == kInfDist && row.test_flag(t, DvRow::kDirty)) {
    // Undelivered poison marker: subscribers have not yet been told this
    // entry died. Overwriting it now (e.g. from a stale portal cache while
    // ingesting a later event of the same batch) would silently revoke the
    // invalidation and leave remote dependents holding stale-low values.
    // Defer: repairs run only after the poison barrier has drained.
    ctx.repairs->emplace_back(x, t);
    return;
  }
  if (nd < row.dist(t)) {
    AACC_WATCH_HIT("relax", x, t, nd, nh);
    if (ctx.deltas == nullptr) {
      row.set(t, nd, nh);
      if (row.mark_dirty(t)) ++*ctx.dirty_entries;
    } else {
      DvRowDelta& delta = (*ctx.deltas)[static_cast<std::size_t>(ri)];
      if (!delta.live) {
        delta.live = true;
        ctx.touched->push_back(static_cast<std::uint32_t>(ri));
      }
      row.set_sharded(t, nd, nh, delta);
      if (row.mark_dirty_sharded(t, delta)) ++*ctx.dirty_entries;
    }
    ++*ctx.relaxations;
    if (!row.test_flag(t, DvRow::kQueued)) {
      row.set_flag(t, DvRow::kQueued);
      ctx.worklist->emplace_back(x, t);
    }
  }
}

void RankEngine::propagate(ShardCtx& ctx, VertexId x, VertexId t) {
  const std::int32_t ri = lg_.row_of(x);
  if (ri < 0) return;  // migrated or deleted since queueing
  DvRow& row = dv_->row(static_cast<std::size_t>(ri));
  row.clear_flag(t, DvRow::kQueued);
  const Dist base = row.dist(t);
  if (base == kInfDist) return;  // poisoned since queueing
  for (const Edge& e : lg_.adj(static_cast<std::size_t>(ri))) {
    if (lg_.is_local(e.to)) {
      relax(ctx, e.to, t, dist_add(base, e.w), x);
    }
  }
}

void RankEngine::repair(ShardCtx& ctx, VertexId x, VertexId t) {
  ++*ctx.repairs_run;
  const std::int32_t ri = lg_.row_of(x);
  if (ri < 0 || !lg_.is_alive(t) || x == t) return;
  Dist best = kInfDist;
  VertexId best_hop = kNoVertex;
  for (const Edge& e : lg_.adj(static_cast<std::size_t>(ri))) {
    Dist dz;
    if (e.to == t) {
      dz = 0;
    } else if (lg_.is_local(e.to)) {
      dz = dv_->row(static_cast<std::size_t>(lg_.row_of(e.to))).dist(t);
    } else {
      const auto it = caches_.find(e.to);
      dz = it == caches_.end() ? kInfDist : it->second[t];
    }
    const Dist cand = dist_add(dz, e.w);
    if (cand < best) {
      best = cand;
      best_hop = e.to;
    }
  }
  relax(ctx, x, t, best, best_hop);
}

namespace {
/// Below this many queued items a parallel drain costs more in thread
/// start/join than it saves; the shard count scales with the work so small
/// drains stay serial. Purely a performance knob: serial and sharded drains
/// produce bit-identical state, so the branch cannot change results.
constexpr std::size_t kDrainShardGrain = 128;

/// Cold rows decoded ahead per collective arrival while later sends are
/// still in flight. Small on purpose: each arrival re-arms the loop, so a
/// long window streams decodes without ever stalling payload application.
constexpr std::size_t kPrefetchPerArrival = 4;
}  // namespace

std::size_t RankEngine::rc_thread_count() const {
  if (cfg_.rc_threads != 0) return cfg_.rc_threads;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto ranks = static_cast<unsigned>(std::max<Rank>(comm_.size(), 1));
  return std::clamp<std::size_t>(hw / ranks, 1, 8);
}

void RankEngine::drain() {
  const std::size_t queued = repairs_.size() + worklist_.size();
  const obs::ScopedSpan span(trace_, "drain", "queued", queued);
  if (m_queue_depth_ != nullptr) m_queue_depth_->record(queued);
  queue_depth_step_ += queued;  // progress feed: frontier depth this step
  const std::uint64_t repairs_before = repair_count_;
  const double t0 = thread_cpu_now();
  const std::size_t shards =
      std::min(rc_thread_count(), queued / kDrainShardGrain);
  if (shards > 1) {
    drain_parallel(shards);
  } else {
    // Serial path. Repairs first: they re-derive poisoned entries, whose
    // improvements then flow through the worklist.
    ShardCtx ctx = serial_ctx();
    while (!repairs_.empty() || !worklist_.empty()) {
      if (!repairs_.empty()) {
        const auto [x, t] = repairs_.front();
        repairs_.pop_front();
        repair(ctx, x, t);
      } else {
        const auto [x, t] = worklist_.front();
        worklist_.pop_front();
        propagate(ctx, x, t);
      }
    }
    const double dt = thread_cpu_now() - t0;
    drain_cpu_seconds_ += dt;
    drain_modeled_seconds_ += dt;
  }
  // Repairs interleave with propagation inside the drain (FIFO, repairs
  // first), so repair activity surfaces as one counted instant per drain
  // rather than per-item spans.
  if (trace_ != nullptr && repair_count_ > repairs_before) {
    trace_->instant("repairs", "count", repair_count_ - repairs_before);
  }
}

void RankEngine::drain_parallel(std::size_t shards) {
  // Column-sharded drain (DESIGN.md §"Column-sharded parallel recombination
  // drain"). Every queued (x, t) item reads and writes column t only —
  // propagation enqueues (neighbour, t), a deferred repair re-enqueues
  // (x, t), and repair() reads neighbour rows and portal caches at column t
  // — so partitioning by t mod shards yields shard-disjoint work. The
  // partition below is a stable filter of the FIFO queues, each shard runs
  // the same repairs-first FIFO rule, and no item ever changes shard, so
  // every shard replays exactly the serial schedule restricted to its
  // columns: distances, next hops, flag bytes, queue contents and counter
  // totals come out bit-identical to the serial drain for any shard count.
  const double part0 = thread_cpu_now();
  if (rc_shards_.size() < shards) rc_shards_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    rc_shards_[s].deltas.resize(dv_->size());
  }
  for (const auto& [x, t] : repairs_) {
    rc_shards_[t % shards].repairs.emplace_back(x, t);
  }
  for (const auto& [x, t] : worklist_) {
    rc_shards_[t % shards].worklist.emplace_back(x, t);
  }
  repairs_.clear();
  worklist_.clear();
  const double partition_cpu = thread_cpu_now() - part0;

  run_workers(shards, [&](std::size_t s) {
    const obs::ScopedSpan wspan(
        tracer_ != nullptr ? &tracer_->subtrack(comm_.rank(), s) : nullptr,
        "drain_shard", "queued",
        rc_shards_[s].repairs.size() + rc_shards_[s].worklist.size());
    const double w0 = thread_cpu_now();
    RcShard& sh = rc_shards_[s];
    ShardCtx ctx;
    ctx.worklist = &sh.worklist;
    ctx.repairs = &sh.repairs;
    ctx.relaxations = &sh.relaxations;
    ctx.dirty_entries = &sh.dirty_entries;
    ctx.repairs_run = &sh.repairs_run;
    ctx.deltas = &sh.deltas;
    ctx.touched = &sh.touched;
    while (!sh.repairs.empty() || !sh.worklist.empty()) {
      if (!sh.repairs.empty()) {
        const auto [x, t] = sh.repairs.front();
        sh.repairs.pop_front();
        repair(ctx, x, t);
      } else {
        const auto [x, t] = sh.worklist.front();
        sh.worklist.pop_front();
        propagate(ctx, x, t);
      }
    }
    sh.cpu_seconds = thread_cpu_now() - w0;
  });

  // Deterministic merge, in shard-id order: row aggregates and index-list
  // appends fold in via apply_delta, counters sum. The append order differs
  // from the serial drain's interleaving, but list order is unobservable —
  // every consumer sorts, clears, or filters by the per-column flags.
  const double merge0 = thread_cpu_now();
  double max_shard_cpu = 0.0;
  double sum_shard_cpu = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    RcShard& sh = rc_shards_[s];
    for (const std::uint32_t ri : sh.touched) {
      dv_->row(ri).apply_delta(sh.deltas[ri]);
    }
    sh.touched.clear();
    relaxations_ += sh.relaxations;
    dirty_entries_ += sh.dirty_entries;
    repair_count_ += sh.repairs_run;
    sh.relaxations = 0;
    sh.dirty_entries = 0;
    sh.repairs_run = 0;
    max_shard_cpu = std::max(max_shard_cpu, sh.cpu_seconds);
    sum_shard_cpu += sh.cpu_seconds;
    sh.cpu_seconds = 0.0;
  }
  const double merge_cpu = thread_cpu_now() - merge0;
  drain_cpu_seconds_ += partition_cpu + sum_shard_cpu + merge_cpu;
  drain_modeled_seconds_ += partition_cpu + max_shard_cpu + merge_cpu;
}

// ------------------------------------------------------------- poisoning

void RankEngine::poison_entry(std::size_t row_idx, VertexId t,
                              std::deque<std::pair<VertexId, VertexId>>& queue) {
  DvRow& row = dv_->row(row_idx);
  AACC_WATCH_HIT("poison", row.self(), t, kInfDist, kNoVertex);
  row.set(t, kInfDist, kNoVertex);
  if (row.mark_dirty(t)) ++dirty_entries_;
  ++poisons_;
  poison_pending_ = true;
  repairs_.emplace_back(row.self(), t);
  queue.emplace_back(row.self(), t);
}

void RankEngine::poison_cascade(std::deque<std::pair<VertexId, VertexId>> seeds) {
  std::vector<std::size_t> candidates;
  while (!seeds.empty()) {
    const auto [z, t] = seeds.front();
    seeds.pop_front();
    // Every local entry whose witness chain starts through z is invalid.
    // A next hop is always a current neighbor (relax, repair, IA install
    // and incoming portal updates all set nh to an adjacent vertex, and
    // deleting an edge poisons the entries routed over it before the next
    // event applies), so only z's neighbors can hold nh == z: scan adj(z),
    // not the whole store — under a tiered store a cold probe is a linear
    // blob scan, and the full-row sweep made every cascade O(rows * blob).
    // Candidates are visited in ascending row order, reproducing the exact
    // poison sequence of the historical whole-store sweep. Probe lookups
    // never promote: a real next-hop hit implies a finite distance (the
    // row invariant), so the dist probe only guards hot-row reads.
    const std::int32_t zri = lg_.row_of(z);
    candidates.clear();
    if (zri >= 0) {
      for (const Edge& e : lg_.adj(static_cast<std::size_t>(zri))) {
        const std::int32_t ri = lg_.is_local(e.to) ? lg_.row_of(e.to) : -1;
        if (ri >= 0) candidates.push_back(static_cast<std::size_t>(ri));
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    } else {
      // z has no local row (migrated or deleted mid-batch): its adjacency
      // is unknown here, so fall back to the exhaustive sweep.
      candidates.resize(dv_->size());
      std::iota(candidates.begin(), candidates.end(), std::size_t{0});
    }
    for (const std::size_t r : candidates) {
      if (dv_->probe_next_hop(r, t) == z && dv_->probe_dist(r, t) != kInfDist) {
        poison_entry(r, t, seeds);
      }
    }
  }
}

void RankEngine::poison_first_hops(
    VertexId u, VertexId v, std::deque<std::pair<VertexId, VertexId>>& seeds) {
  const auto scan = [&](VertexId a, VertexId b) {
    const std::int32_t ri = lg_.row_of(a);
    if (ri < 0) return;
    // Only finite columns can hold a witness through b, so the entry walk
    // is a complete candidate set — O(finite), not an O(n) column scan.
    // Collect first, then poison: poison_entry promotes the row, which
    // would free a cold blob out from under the entry cursor. Both stores
    // walk ascending columns, so resident and tiered poison identically.
    const auto r = static_cast<std::size_t>(ri);
    std::vector<VertexId> hits;
    dv_->for_each_entry(r, [&](VertexId t, Dist, VertexId nh) {
      if (nh == b) hits.push_back(t);
    });
    for (const VertexId t : hits) poison_entry(r, t, seeds);
  };
  scan(u, v);
  scan(v, u);
}

// ----------------------------------------------------------- portal cache

std::vector<Dist>& RankEngine::cache_of(VertexId portal) {
  auto [it, inserted] = caches_.try_emplace(portal);
  if (inserted) it->second.assign(lg_.n(), kInfDist);
  return it->second;
}

RankEngine::PortalView RankEngine::portal_view(VertexId b) {
  return {b, cache_of(b), lg_.portal_neighbors(b)};
}

void RankEngine::apply_portal_value(const PortalView& pv, VertexId t, Dist d) {
  const VertexId b = pv.b;
  const Dist cur = pv.cache[t];
  if (d == cur && d != kInfDist) return;
  pv.cache[t] = d;
  if (d > cur || d == kInfDist) {
    // The owner's value increased (a deletion upstream), or this is an
    // explicit poison marker: every local chain through b for this target
    // is stale. The marker must cascade even when the cache already reads
    // infinity — a cache rebuilt after repartitioning starts blank, yet
    // dependents derived in an earlier co-location/subscription era may
    // still hold finite values routed through b.
    std::deque<std::pair<VertexId, VertexId>> seeds;
    seeds.emplace_back(b, t);
    poison_cascade(std::move(seeds));
  }
  if (d != kInfDist && lg_.is_alive(t)) {
    for (const auto& [x, w] : pv.neighbors) {
      relax(x, t, dist_add(d, w), b);
    }
  }
}

// --------------------------------------------------------------- exchange

void RankEngine::exchange() {
  const obs::ScopedSpan span(trace_, "exchange", "dirty", dirty_entries_);
  const auto P = static_cast<std::size_t>(comm_.size());
  const std::size_t num_rows = dv_->size();
  reset_prefetch_cursors();
  // Send assembly only reads shared state (rows, dirty lists, subscriber
  // index) and writes per-shard buffers, so contiguous row blocks fan out
  // across the worker pool. As with the drain, the shard count scales with
  // the pending work so small steps stay on one (inline) worker.
  const std::size_t shards = std::clamp<std::size_t>(
      std::min(rc_thread_count(),
               static_cast<std::size_t>(dirty_entries_) / kDrainShardGrain),
      1, std::max<std::size_t>(num_rows, 1));
  if (send_shards_.size() < shards) send_shards_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    SendShard& sh = send_shards_[s];
    if (sh.writers.size() < P) sh.writers.resize(P);
    for (auto& w : sh.writers) w.clear();
    sh.sent_rows.clear();
  }

  {
    const obs::ScopedSpan assembly(trace_, "send_assembly");
    run_workers(shards, [&](std::size_t s) {
      const obs::ScopedSpan wspan(
          tracer_ != nullptr ? &tracer_->subtrack(comm_.rank(), s) : nullptr,
          "send_shard");
      SendShard& sh = send_shards_[s];
      const std::size_t begin = num_rows * s / shards;
      const std::size_t end = num_rows * (s + 1) / shards;
      for (std::size_t r = begin; r < end; ++r) {
        if (dv_->dirty_count(r) == 0) continue;
        sh.subs.clear();
        lg_.subscribers(r, sh.subs);
        if (!sh.subs.empty()) {
          // Send assembly walks the sparse dirty list (sorted, as the delta
          // codec requires); the record is encoded once and fanned out.
          // collect_dirty_entries is read-only, so cold rows serve their
          // sends without promotion (shards partition rows, never racing).
          sh.entries.clear();
          dv_->collect_dirty_entries(r, sh.dirty_cols, sh.entries);
          sh.record.clear();
          rt::write_dv_record(sh.record, dv_->self(r), sh.entries);
          for (const Rank q : sh.subs) {
            sh.writers[static_cast<std::size_t>(q)].write_bytes(
                sh.record.view());
          }
        }
        sh.sent_rows.push_back(r);
      }
    });
  }

  // Concatenating each destination's shard buffers in shard-id order yields
  // exactly the bytes a serial ascending-row walk produces, for any shard
  // count. The payload hands its storage to the transport (it crosses
  // threads inside the Message), so a single shard's buffer is moved out
  // as is — the concatenation would only copy it.
  const auto assemble_payload = [&](std::size_t q) -> std::vector<std::byte> {
    if (shards == 1) return send_shards_[0].writers[q].take();
    std::size_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      total += send_shards_[s].writers[q].size();
    }
    std::vector<std::byte> buf;
    buf.reserve(total);
    for (std::size_t s = 0; s < shards; ++s) {
      const auto v = send_shards_[s].writers[q].view();
      buf.insert(buf.end(), v.begin(), v.end());
    }
    return buf;
  };
  const auto me = static_cast<std::size_t>(comm_.rank());

  if (cfg_.exchange_mode == ExchangeMode::kDeterministic) {
    // Oracle schedule: window 1 reproduces the classic blocking shift
    // exchange send for send and recv for recv. Dirty flags are retired
    // only once the collective has returned: if the exchange throws (a
    // peer died mid-step), the pending sends stay dirty in this rank's
    // state and survive into the recovery stash — subscribers will still
    // receive them after the restart. Cleared before apply_incoming so
    // entries re-dirtied by the incoming values are kept. Shard-id order
    // over contiguous blocks = ascending row order, as before.
    auto pending = comm_.all_to_all_begin(1);
    pending.submit(comm_.rank(), assemble_payload(me));
    for (Rank s = 1; s < comm_.size(); ++s) {
      const Rank dst = (comm_.rank() + s) % comm_.size();
      pending.submit(dst, assemble_payload(static_cast<std::size_t>(dst)));
    }
    // Chaos hook (FaultPlan CrashPhase::kMidExchange): die between the
    // submits and the collective's completion. The dirty flags are still
    // set (they retire only after wait_all), so the recovery stash keeps
    // every pending send, exactly like a step-top crash.
    if (!ghost_ && injector_ != nullptr &&
        injector_->should_crash(comm_.rank(), cur_step_,
                                rt::CrashPhase::kMidExchange)) {
      throw rt::InjectedCrash(comm_.rank(), cur_step_);
    }
    auto in = pending.wait_all();
    note_exchange_overlap(pending);
    for (std::size_t s = 0; s < shards; ++s) {
      for (const std::size_t r : send_shards_[s].sent_rows) {
        dirty_entries_ -= dv_->retire_dirty(r);
      }
    }
    apply_incoming(in);
    return;
  }

  // Pipelined / async: each destination's payload is handed to the
  // transport as soon as its concatenation finishes, up to the configured
  // window ahead of the completed recvs; peers' payloads are decoded and
  // applied in arrival order, overlapping decode (and, in async mode, the
  // next drain) with the remaining network time. Safe by the anytime
  // property: DV entries are monotone upper bounds, so consuming a peer's
  // deltas early or late cannot move the fixed point.
  auto pending = comm_.all_to_all_begin(effective_exchange_window());
  pending.submit(comm_.rank(), assemble_payload(me));
  for (Rank s = 1; s < comm_.size(); ++s) {
    const Rank dst = (comm_.rank() + s) % comm_.size();
    pending.submit(dst, assemble_payload(static_cast<std::size_t>(dst)));
  }
  // Chaos hook (CrashPhase::kMidExchange), before the retire below so the
  // pending sends are still dirty when the supervisor stashes this state.
  if (!ghost_ && injector_ != nullptr &&
      injector_->should_crash(comm_.rank(), cur_step_,
                              rt::CrashPhase::kMidExchange)) {
    throw rt::InjectedCrash(comm_.rank(), cur_step_);
  }
  // After the last submit every send has been issued (puts never block), so
  // the sent data is on the wire: retire the dirty flags now, before the
  // first arrival is applied, so entries re-dirtied by incoming values are
  // kept — but record what was cleared. If the drain below aborts (a peer
  // died), the cleared columns are re-marked so the pending sends still
  // survive into the recovery stash, exactly like the deterministic path's
  // retire-after-collective ordering guarantees.
  exch_cleared_spans_.clear();
  exch_cleared_cols_.clear();
  for (std::size_t s = 0; s < shards; ++s) {
    for (const std::size_t r : send_shards_[s].sent_rows) {
      const std::size_t start = exch_cleared_cols_.size();
      dirty_entries_ -= dv_->retire_dirty(r, &exch_cleared_cols_);
      if (exch_cleared_cols_.size() > start) {
        exch_cleared_spans_.emplace_back(r, exch_cleared_cols_.size() - start);
      }
    }
  }
  try {
    while (auto arrival = pending.try_recv_any()) {
      apply_incoming_payload(arrival->src, arrival->payload);
      if (cfg_.exchange_mode == ExchangeMode::kAsync) drain_overlap();
      // Overlap spill IO with the in-flight window: decode a few cold rows
      // the queued drain work will touch while peers' payloads are still on
      // the wire. Residency-only — values are untouched, so the overlap
      // cannot perturb results.
      prefetch_pending(kPrefetchPerArrival);
    }
  } catch (...) {
    std::size_t idx = 0;
    for (const auto& [r, n] : exch_cleared_spans_) {
      for (std::size_t i = 0; i < n; ++i) {
        if (dv_->remark_dirty(r, exch_cleared_cols_[idx + i])) {
          ++dirty_entries_;
        }
      }
      idx += n;
    }
    throw;
  }
  note_exchange_overlap(pending);
}

Rank RankEngine::effective_exchange_window() const {
  const Rank cap = std::max<Rank>(1, comm_.size() - 1);
  if (cfg_.exchange_window == 0) return cap;
  return std::min<Rank>(static_cast<Rank>(cfg_.exchange_window), cap);
}

void RankEngine::note_exchange_overlap(const rt::PendingAllToAll& pending) {
  exchange_wait_seconds_ += pending.wait_seconds();
  exchange_inflight_step_ =
      std::max(exchange_inflight_step_, pending.max_inflight());
  if (pending.blocked_on_seconds() > blocked_on_seconds_step_) {
    blocked_on_seconds_step_ = pending.blocked_on_seconds();
    blocked_on_rank_step_ = pending.blocked_on_peer();
  }
  if (trace_ != nullptr) {
    // The measured wait is wall-clock: on a logical-clock track its value
    // would differ run to run and break golden-trace reproducibility, so
    // the arg is only attached on wall-clock tracks.
    if (trace_->logical_clock()) {
      trace_->instant("exchange_wait");
    } else {
      trace_->instant("exchange_wait", "us",
                      static_cast<std::uint64_t>(pending.wait_seconds() * 1e6));
    }
    trace_->instant("inflight_depth", "depth", pending.max_inflight());
  }
}

void RankEngine::drain_overlap() {
  // Async overlap between exchange arrivals: worklist propagation only.
  // Repairs stay queued for the post-barrier drain — running one here
  // could read a value whose witness chain a still-in-flight poison
  // marker is about to kill (the count-to-infinity guard).
  if (worklist_.empty()) return;
  const double t0 = thread_cpu_now();
  ShardCtx ctx = serial_ctx();
  while (!worklist_.empty()) {
    const auto [x, t] = worklist_.front();
    worklist_.pop_front();
    propagate(ctx, x, t);
  }
  // The overlap drain consumed (and may have re-filled) the worklist; the
  // prefetch cursors index into it, so they restart from the new front.
  reset_prefetch_cursors();
  const double dt = thread_cpu_now() - t0;
  drain_cpu_seconds_ += dt;
  drain_modeled_seconds_ += dt;
}

void RankEngine::maintain_store() {
  // Step-boundary residency pass. Boundary rows feed every exchange's send
  // assembly, so the LRU demotes them last.
  boundary_flags_.assign(dv_->size(), 0);
  std::vector<Rank> subs;
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    subs.clear();
    lg_.subscribers(r, subs);
    boundary_flags_[r] = subs.empty() ? 0 : 1;
  }
  dv_->maintain(boundary_flags_);
}

void RankEngine::prefetch_pending(std::size_t budget) {
  // Exchange-overlapped spill IO: while peers' payloads are in flight,
  // decode the cold rows the queued work will touch once the drain starts.
  // Residency-only (values never change), so overlap cannot perturb
  // results; the cursors advance monotonically and are reset whenever the
  // queues are consumed (exchange start, sync round start, overlap drain).
  const auto scan = [&](const std::deque<std::pair<VertexId, VertexId>>& q,
                        std::size_t& pos) {
    while (budget > 0 && pos < q.size()) {
      const std::int32_t ri = lg_.row_of(q[pos].first);
      ++pos;
      if (ri >= 0 && !dv_->is_hot(static_cast<std::size_t>(ri))) {
        dv_->prefetch(static_cast<std::size_t>(ri));
        --budget;
      }
    }
  };
  scan(repairs_, prefetch_repair_pos_);
  scan(worklist_, prefetch_work_pos_);
}

void RankEngine::apply_incoming(const std::vector<std::vector<std::byte>>& in) {
  for (Rank q = 0; q < comm_.size(); ++q) {
    if (q == comm_.rank()) continue;
    apply_incoming_payload(q, in[static_cast<std::size_t>(q)]);
  }
}

void RankEngine::apply_incoming_payload(Rank q,
                                        std::span<const std::byte> payload) {
  (void)q;
  if (payload.empty()) return;
  rt::ByteReader rd(payload);
  while (!rd.done()) {
    rt::DvRecordReader rec(rd);
    const VertexId b = rec.vid();
    if (!lg_.is_portal(b)) {
      // Stale sender view: skip the entries and drop any leftover cache.
      for (std::uint32_t i = 0; i < rec.count(); ++i) (void)rec.next();
      caches_.erase(b);
      continue;
    }
    if (rec.count() == 0) continue;  // never creates an unused cache row
    // Record-granular apply: b's cache row and neighbour span are resolved
    // once, not per entry. Applying never adds or removes a portal or a
    // cache row, so both stay valid across the loop.
    const PortalView pv = portal_view(b);
    for (std::uint32_t i = 0; i < rec.count(); ++i) {
      const auto [t, d] = rec.next();
      apply_portal_value(pv, t, d);
    }
  }
}

bool RankEngine::poison_sync_round() {
  const Rank P = comm_.size();
  if (sync_writers_.size() < static_cast<std::size_t>(P)) {
    sync_writers_.resize(static_cast<std::size_t>(P));
  }
  std::vector<rt::ByteWriter>& writers = sync_writers_;
  for (auto& w : writers) w.clear();
  std::vector<Rank>& subs = exch_subs_;
  std::vector<VertexId>& dirty_cols = exch_dirty_cols_;
  std::vector<std::pair<VertexId, Dist>>& dead = exch_entries_;
  std::vector<std::pair<std::size_t, VertexId>>& sent_markers = sync_markers_;
  sent_markers.clear();
  reset_prefetch_cursors();

  for (std::size_t r = 0; r < dv_->size(); ++r) {
    if (dv_->dirty_count(r) == 0) continue;
    subs.clear();
    lg_.subscribers(r, subs);
    // The newly-invalid entries are dirty by construction, so the sparse
    // list (sorted for the delta codec) is a complete candidate set; a
    // dirty column with no live entry is by definition a poison marker, so
    // the cold rows' collect view (absent → kInfDist) matches the dense
    // dist() reads exactly.
    sync_scratch_.clear();
    dv_->collect_dirty_entries(r, dirty_cols, sync_scratch_);
    dead.clear();
    for (const auto& [t, d] : sync_scratch_) {
      if (d == kInfDist) dead.emplace_back(t, kInfDist);
    }
    if (subs.empty()) {
      // Nobody depends on this row; retire the markers so the deferred
      // repairs (see relax()) become runnable again.
      for (const auto& [t, d] : dead) {
        if (dv_->retire_dirty_one(r, t)) --dirty_entries_;
      }
      continue;
    }
    if (dead.empty()) continue;
    exch_record_.clear();
    rt::write_dv_record(exch_record_, dv_->self(r), dead);
    for (const Rank q : subs) {
      writers[static_cast<std::size_t>(q)].write_bytes(exch_record_.view());
    }
    for (const auto& [t, d] : dead) {
      sent_markers.emplace_back(r, t);
    }
  }

  // Same transport path as exchange(), at the same window. No drain
  // overlap in any mode: the barrier exists to flush poison markers before
  // repairs run, so interleaving propagation here would buy nothing and
  // muddy the count-to-infinity argument.
  const Rank window = cfg_.exchange_mode == ExchangeMode::kDeterministic
                          ? 1
                          : effective_exchange_window();
  auto pending = comm_.all_to_all_begin(window);
  pending.submit(comm_.rank(),
                 writers[static_cast<std::size_t>(comm_.rank())].take());
  for (Rank s = 1; s < P; ++s) {
    const Rank dst = (comm_.rank() + s) % P;
    pending.submit(dst, writers[static_cast<std::size_t>(dst)].take());
  }

  if (cfg_.exchange_mode == ExchangeMode::kDeterministic) {
    auto in = pending.wait_all();
    note_exchange_overlap(pending);
    // As in exchange(): markers are retired only after the collective
    // returns, so an aborted round leaves them pending for the recovery
    // stash instead of silently un-sent.
    for (const auto& [r, t] : sent_markers) {
      if (dv_->retire_dirty_one(r, t)) --dirty_entries_;
    }
    apply_incoming(in);
  } else {
    // Pipelined: all sends are issued once the submits return, so the
    // markers retire now (before any arrival is applied); an aborted drain
    // re-marks them for the recovery stash, mirroring exchange().
    for (const auto& [r, t] : sent_markers) {
      if (dv_->retire_dirty_one(r, t)) --dirty_entries_;
    }
    try {
      while (auto arrival = pending.try_recv_any()) {
        apply_incoming_payload(arrival->src, arrival->payload);
        // Spill-IO overlap, as in exchange(): warm the rows the deferred
        // repairs will touch once the barrier drains.
        prefetch_pending(kPrefetchPerArrival);
      }
    } catch (...) {
      for (const auto& [r, t] : sent_markers) {
        if (dv_->remark_dirty(r, t)) ++dirty_entries_;
      }
      throw;
    }
    note_exchange_overlap(pending);
  }

  const bool mine = poison_pending_;
  poison_pending_ = false;
  return mine;
}

// ----------------------------------------------------------- dirty helper

void RankEngine::mark_finite_dirty(std::size_t row_idx) {
  // Walks the row's finite columns instead of the full column range —
  // O(finite), which is what the whole-row resend actually costs
  // downstream anyway. Cold rows merge their sorted dirty list in place,
  // without promotion.
  dirty_entries_ += dv_->mark_finite_dirty(row_idx);
}

// ------------------------------------------------------------- edge events

void RankEngine::seed_through_edge(VertexId x, VertexId z, Weight w) {
  // x, z local; relax x's whole row through its neighbour z. Only finite
  // entries of z can seed anything (an infinite source saturates dist_add
  // and relax drops it), so the entry walk — which never promotes z —
  // visits exactly the columns the old dense scan acted on.
  const auto zri = static_cast<std::size_t>(lg_.row_of(z));
  dv_->for_each_entry(zri, [&](VertexId t, Dist d, VertexId) {
    if (t == x) return;
    relax(x, t, dist_add(d, w), z);
  });
}

void RankEngine::apply_edge_add(const EdgeAddEvent& e) {
  lg_.add_edge(e.u, e.v, e.w);
  const bool lu = lg_.is_local(e.u);
  const bool lv = lg_.is_local(e.v);

  if (cfg_.add_mode == EdgeAddMode::kEager) {
    eager_edge_relax(e);  // collective: every rank participates
  }

  if (lu && lv) {
    if (cfg_.add_mode == EdgeAddMode::kSeeded) {
      seed_through_edge(e.u, e.v, e.w);
      seed_through_edge(e.v, e.u, e.w);
    }
    return;
  }
  if (lu) {
    // The owner of v just became (or already is) a subscriber of u's row.
    mark_finite_dirty(static_cast<std::size_t>(lg_.row_of(e.u)));
    const auto it = caches_.find(e.v);
    if (it != caches_.end()) {
      const std::vector<Dist>& cache = it->second;
      for (VertexId t = 0; t < cache.size(); ++t) {
        if (t != e.u) relax(e.u, t, dist_add(cache[t], e.w), e.v);
      }
    }
    relax(e.u, e.v, e.w, e.v);  // the new edge itself
  } else if (lv) {
    mark_finite_dirty(static_cast<std::size_t>(lg_.row_of(e.v)));
    const auto it = caches_.find(e.u);
    if (it != caches_.end()) {
      const std::vector<Dist>& cache = it->second;
      for (VertexId t = 0; t < cache.size(); ++t) {
        if (t != e.v) relax(e.v, t, dist_add(cache[t], e.w), e.u);
      }
    }
    relax(e.v, e.u, e.w, e.u);
  }
}

void RankEngine::eager_edge_relax(const EdgeAddEvent& e) {
  // Figure-3 of the paper: owners broadcast both endpoint rows; every rank
  // relaxes every local row against them.
  const auto fetch_row = [&](VertexId v) {
    rt::ByteWriter w;
    if (lg_.is_local(v)) {
      // Whole-row broadcast needs the dense form; promotes if cold.
      w.write_vec(dv_->row(static_cast<std::size_t>(lg_.row_of(v))).dists());
    }
    auto buf = comm_.broadcast(w.take(), lg_.owner(v));
    rt::ByteReader r(buf);
    return r.read_vec<Dist>();
  };
  const std::vector<Dist> row_u = fetch_row(e.u);
  const std::vector<Dist> row_v = fetch_row(e.v);

  // Fold the broadcast rows into the portal caches first, *through the
  // regular delivery path* (apply_portal_value), exactly as if the owner's
  // row had arrived in an exchange: decreases relax the portal's
  // neighbours, increases/poisons cascade. (Silently assigning the cache
  // would make the owner's next dirty-send look like a no-change and
  // suppress the relaxation it is meant to trigger — an early bug.)
  const auto absorb = [&](VertexId vtx, const std::vector<Dist>& row) {
    if (!lg_.is_portal(vtx)) return;
    const PortalView pv = portal_view(vtx);
    for (VertexId t = 0; t < row.size(); ++t) {
      apply_portal_value(pv, t, row[t]);
    }
  };
  absorb(e.u, row_u);
  absorb(e.v, row_v);

  const auto relax_against = [&](VertexId via, const std::vector<Dist>& far_row,
                                 VertexId far) {
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      // Whole-matrix relaxation sweep: dense access is the point here, so
      // rows promote as they are touched (eager adds are rare and
      // collective; the next maintain() re-demotes the settled ones).
      DvRow& row = dv_->row(r);
      const VertexId x = row.self();
      const Dist dxv = row.dist(via);
      if (dxv == kInfDist && x != via) continue;
      const VertexId nh = (x == via) ? far : row.next_hop(via);
      // The DVR chain relation d[x][t] >= w(x,nh) + d[nh][t] must hold at
      // commit time against nh's *current* value (local row or portal
      // cache): a deferred/poisoned entry on nh may have been repaired to
      // something larger than the snapshot this relaxation is derived
      // from, and committing below the chain would detach the entry from
      // the poison-cascade bookkeeping. Skipped writes are safe — the
      // ordinary propagation converges to the same fixpoint.
      Weight wxh = 0;
      for (const Edge& edge : lg_.adj(r)) {
        if (edge.to == nh) {
          wxh = edge.w;
          break;
        }
      }
      if (wxh == 0) continue;  // nh is not currently a neighbour: skip row
      const DvRow* ref_row = nullptr;
      const std::vector<Dist>* ref_cache = nullptr;
      if (lg_.is_local(nh)) {
        ref_row = &dv_->row(static_cast<std::size_t>(lg_.row_of(nh)));
      } else {
        const auto it = caches_.find(nh);
        if (it == caches_.end()) continue;  // no reference available
        ref_cache = &it->second;
      }
      for (VertexId t = 0; t < far_row.size(); ++t) {
        if (t == x) continue;
        const Dist cand = dist_add(dxv, dist_add(e.w, far_row[t]));
        if (cand >= row.dist(t)) continue;
        const Dist ref = (nh == t) ? 0
                         : (ref_row != nullptr ? ref_row->dist(t)
                                               : (*ref_cache)[t]);
        if (cand < dist_add(wxh, ref)) continue;  // chain would break: skip
        relax(x, t, cand, nh);
      }
    }
  };
  relax_against(e.u, row_v, e.v);
  relax_against(e.v, row_u, e.u);
}

void RankEngine::apply_edge_delete(const EdgeDeleteEvent& e) {
  std::deque<std::pair<VertexId, VertexId>> seeds;
  poison_first_hops(e.u, e.v, seeds);
  lg_.remove_edge(e.u, e.v);
  if (!lg_.is_portal(e.u)) caches_.erase(e.u);
  if (!lg_.is_portal(e.v)) caches_.erase(e.v);
  poison_cascade(std::move(seeds));
}

void RankEngine::apply_weight_change(const WeightChangeEvent& e) {
  const bool lu = lg_.is_local(e.u);
  const bool lv = lg_.is_local(e.v);
  if (!lu && !lv) return;
  const Weight old = lg_.edge_weight(e.u, e.v);
  lg_.set_weight(e.u, e.v, e.w_new);
  if (e.w_new < old) {
    // Behaves like an addition: relax the endpoint rows through the edge.
    if (lu && lv) {
      seed_through_edge(e.u, e.v, e.w_new);
      seed_through_edge(e.v, e.u, e.w_new);
    } else if (lu) {
      const auto it = caches_.find(e.v);
      if (it != caches_.end()) {
        for (VertexId t = 0; t < it->second.size(); ++t) {
          if (t != e.u) relax(e.u, t, dist_add(it->second[t], e.w_new), e.v);
        }
      }
      relax(e.u, e.v, e.w_new, e.v);
    } else {
      const auto it = caches_.find(e.u);
      if (it != caches_.end()) {
        for (VertexId t = 0; t < it->second.size(); ++t) {
          if (t != e.v) relax(e.v, t, dist_add(it->second[t], e.w_new), e.u);
        }
      }
      relax(e.v, e.u, e.w_new, e.u);
    }
  } else if (e.w_new > old) {
    // Behaves like a deletion: witnesses crossing the edge are stale; the
    // repairs re-derive them with the new weight.
    std::deque<std::pair<VertexId, VertexId>> seeds;
    poison_first_hops(e.u, e.v, seeds);
    poison_cascade(std::move(seeds));
  }
}

// ------------------------------------------------------------ vertex events

void RankEngine::grow_columns(VertexId count) {
  dv_->grow_columns(count);
  for (auto& [b, cache] : caches_) {
    cache.insert(cache.end(), count, kInfDist);
  }
}

void RankEngine::add_local_row(VertexId v) {
  AACC_CHECK(static_cast<std::size_t>(lg_.row_of(v)) == dv_->size());
  dv_->append_fresh(v);
}

void RankEngine::remove_local_row(std::int32_t row) {
  dv_->swap_remove(static_cast<std::size_t>(row));
}

void RankEngine::apply_vertex_batch(const std::vector<VertexAddEvent>& batch) {
  if (cfg_.assign == AssignStrategy::kRepartition) {
    // No drain here: repairing a poisoned entry back to a finite value
    // before the poison barrier inside apply_repartition has broadcast its
    // infinity marker would hide the invalidation from remote dependents.
    // Stale worklist/repair entries survive the migration harmlessly —
    // they resolve by global vertex id and skip rows that moved away.
    apply_repartition(batch);
    return;
  }
  std::vector<Rank> assign;
  if (cfg_.assign == AssignStrategy::kRoundRobin) {
    // After an adoption the dead seats are ghosts: a vertex dealt to one
    // would be lost again, so the circular deal skips them (assign_skip_ is
    // identical on every rank, ghosts included — owner maps stay in sync).
    assign = assign_skip_.empty()
                 ? assign_round_robin(batch.size(), vertices_added_,
                                      comm_.size())
                 : assign_round_robin_excluding(batch.size(), vertices_added_,
                                                comm_.size(), assign_skip_);
  } else {
    assign = assign_cut_edge(batch, batch.front().id, lg_.owner_map(),
                             comm_.size(), cfg_.seed);
  }
  vertices_added_ += batch.size();

  grow_columns(static_cast<VertexId>(batch.size()));
  // Register the whole batch before creating any row: rows are sized to
  // lg_.n(), which must already cover every new column.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const VertexId id = lg_.add_vertex(assign[i]);
    AACC_CHECK_MSG(id == batch[i].id, "vertex id mismatch in batch");
  }
  for (const VertexAddEvent& ev : batch) {
    if (lg_.is_local(ev.id)) add_local_row(ev.id);
  }
  for (const VertexAddEvent& ev : batch) {
    for (const auto& [to, w] : ev.edges) {
      apply_edge_add(EdgeAddEvent{ev.id, to, w});
    }
  }
}

void RankEngine::apply_vertex_delete(const VertexDeleteEvent& e) {
  const VertexId v = e.v;
  std::deque<std::pair<VertexId, VertexId>> seeds;
  // Any witness whose first hop is v dies with it; deeper chains through v
  // are reached by the cascade.
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    if (dv_->self(r) == v) continue;
    // Collect hits first: poison_entry promotes the row, which would free
    // a cold blob out from under the entry cursor. Only finite columns can
    // route through v, so the entry walk covers the old full-column scan.
    std::vector<VertexId> hits;
    dv_->for_each_entry(r, [&](VertexId t, Dist, VertexId nh) {
      if (nh == v) hits.push_back(t);
    });
    for (const VertexId t : hits) poison_entry(r, t, seeds);
  }
  // Tombstone the target column everywhere (no repair: the target is gone;
  // every rank applies the same event so no message is needed).
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    if (dv_->self(r) != v && dv_->tombstone_column(r, v)) --dirty_entries_;
  }
  const std::int32_t removed = lg_.remove_vertex(v);
  if (removed >= 0) {
    // Keep the global dirty counter consistent with the dropped row.
    dirty_entries_ -= dv_->dirty_count(static_cast<std::size_t>(removed));
    remove_local_row(removed);
  }
  caches_.erase(v);
  poison_cascade(std::move(seeds));
}

// ------------------------------------------------------------- repartition

void RankEngine::apply_repartition(const std::vector<VertexAddEvent>& batch) {
  const obs::ScopedSpan span(trace_, "repartition", "added", batch.size());
  const Rank P = comm_.size();
  const Rank me = comm_.rank();
  const VertexId n_old = lg_.n();
  const VertexId n_new = n_old + static_cast<VertexId>(batch.size());
  vertices_added_ += batch.size();

  // Settle all outstanding invalidations globally before redistributing
  // rows: the rebuild below resets dirty flags, so a pending poison that
  // has not reached its cross-rank dependents yet would otherwise be lost
  // and a stale (too small) value would survive.
  {
    const obs::ScopedSpan sync_span(trace_, "poison_sync");
    bool mine = poison_pending_;
    poison_pending_ = false;
    while (comm_.all_reduce_or(mine)) {
      mine = poison_sync_round();
    }
  }

  // 1. Gather the current edge list at rank 0 (the paper runs ParMETIS here;
  //    the gather+partition+broadcast is our accounted substitute).
  {
    rt::ByteWriter w;
    const auto local_edges = lg_.local_edges_for_gather();
    w.write(static_cast<std::uint64_t>(local_edges.size()));
    for (const auto& [u, v, wt] : local_edges) {
      w.write(u);
      w.write(v);
      w.write(wt);
    }
    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(P));
    out[0] = w.take();
    auto in = comm_.all_to_all(std::move(out));

    rt::ByteWriter plan;  // new owners + full edge list, produced by rank 0
    if (me == 0) {
      Graph g(n_new);
      std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
      for (Rank q = 0; q < P; ++q) {
        rt::ByteReader rd(in[static_cast<std::size_t>(q)]);
        if (rd.done()) continue;
        const auto cnt = rd.read<std::uint64_t>();
        for (std::uint64_t i = 0; i < cnt; ++i) {
          const auto u = rd.read<VertexId>();
          const auto v = rd.read<VertexId>();
          const auto wt = rd.read<Weight>();
          edges.emplace_back(u, v, wt);
        }
      }
      for (const VertexAddEvent& ev : batch) {
        for (const auto& [to, wt] : ev.edges) {
          edges.emplace_back(ev.id, to, wt);
        }
      }
      for (const auto& [u, v, wt] : edges) g.add_edge(u, v, wt);
      // Tombstoned ids must stay unassigned.
      for (VertexId v = 0; v < n_old; ++v) {
        if (!lg_.is_alive(v)) g.remove_vertex(v);
      }
      Rng rng(cfg_.seed ^ (0xda7a5eedULL + n_new));
      const MultilevelPartitioner ml;
      const Partition part = ml.partition(g, P, rng);
      plan.write_vec(part.assignment);
      plan.write(static_cast<std::uint64_t>(edges.size()));
      for (const auto& [u, v, wt] : edges) {
        plan.write(u);
        plan.write(v);
        plan.write(wt);
      }
    }
    auto buf = comm_.broadcast(plan.take(), 0);
    rt::ByteReader rd(buf);
    const auto new_owner = rd.read_vec<Rank>();
    const auto edge_count = rd.read<std::uint64_t>();
    std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
    edges.reserve(edge_count);
    for (std::uint64_t i = 0; i < edge_count; ++i) {
      const auto u = rd.read<VertexId>();
      const auto v = rd.read<VertexId>();
      const auto wt = rd.read<Weight>();
      edges.emplace_back(u, v, wt);
    }

    // 2. Migrate DV rows whose owner changed (partial results are reused —
    //    the anytime property). Rows of new vertices start fresh.
    grow_columns(static_cast<VertexId>(batch.size()));
    std::vector<rt::ByteWriter> writers(static_cast<std::size_t>(P));
    std::vector<DvRow> kept;
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      const Rank owner = new_owner[dv_->self(r)];
      if (owner == me) {
        // Extraction promotes: kept rows re-enter residency hot and the
        // next maintain() re-demotes whatever settles.
        kept.push_back(dv_->take(r));
      } else {
        DvRow row = dv_->take(r);
        auto& w = writers[static_cast<std::size_t>(owner)];
        w.write(row.self());
        w.write_vec(row.dists());
        w.write_vec(row.next_hops());
      }
    }
    std::vector<std::vector<std::byte>> mig(static_cast<std::size_t>(P));
    for (Rank q = 0; q < P; ++q) {
      mig[static_cast<std::size_t>(q)] = writers[static_cast<std::size_t>(q)].take();
    }
    auto arrived = comm_.all_to_all(std::move(mig));

    // 3. Rebuild the local view under the new ownership.
    lg_ = LocalGraph(me, new_owner, edges);
    caches_.clear();
    dirty_entries_ = 0;
    dv_->clear();
    dv_->grow_columns(lg_.n());
    for (std::size_t r = 0; r < lg_.num_local(); ++r) {
      dv_->append_fresh(lg_.vertex_of(r));
    }
    const auto place = [&](DvRow&& row) {
      const std::int32_t ri = lg_.row_of(row.self());
      AACC_CHECK(ri >= 0);
      dv_->put(static_cast<std::size_t>(ri), std::move(row));
    };
    for (DvRow& row : kept) {
      row.grow(static_cast<VertexId>(n_new - row.size()));
      row.reset_flags();  // dirty/queued bits predate the new ownership
      place(std::move(row));
    }
    for (Rank q = 0; q < P; ++q) {
      if (q == me) continue;
      rt::ByteReader mr(arrived[static_cast<std::size_t>(q)]);
      while (!mr.done()) {
        const auto vid = mr.read<VertexId>();
        auto d = mr.read_vec<Dist>();
        auto nh = mr.read_vec<VertexId>();
        d.resize(n_new, kInfDist);
        nh.resize(n_new, kNoVertex);
        place(DvRow(vid, std::move(d), std::move(nh)));
      }
    }
    // Kept rows carry geometric-growth slack from the previous era; drop it
    // now that the row set is final for this ownership generation.
    dv_->shrink_all();

    // 4. Every boundary row must reach its (fresh) subscribers; seed new
    //    rows through their local edges. Existing rows are deliberately not
    //    updated against the new vertices here — that happens over the next
    //    RC steps (the paper's stated trade-off for Repartition-S).
    std::vector<Rank> subs;
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      subs.clear();
      lg_.subscribers(r, subs);
      if (!subs.empty()) mark_finite_dirty(r);
    }
    for (const VertexAddEvent& ev : batch) {
      if (!lg_.is_local(ev.id)) continue;
      const auto ri = static_cast<std::size_t>(lg_.row_of(ev.id));
      for (const Edge& e : lg_.adj(ri)) {
        if (lg_.is_local(e.to)) {
          seed_through_edge(ev.id, e.to, e.w);
        }
      }
    }
    // Direct-edge relaxation for every local row: fresh rows (and rows that
    // gained cut edges through migration) must know their one-hop distances
    // even though the portal caches start empty.
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      const VertexId u = lg_.vertex_of(r);
      for (const Edge& e : lg_.adj(r)) {
        relax(u, e.to, e.w, e.to);
      }
    }
    // Re-enqueue every finite entry for local propagation. Migration
    // co-locates rows that were last reconciled through (now discarded)
    // portal caches, and the reset dirty flags dropped any in-flight
    // improvements; only a full re-relaxation pass restores the local
    // fixpoint constraints d[x][t] <= w(x,z) + d[z][t]. This is exactly
    // the "additional RC steps" cost the paper attributes to Repartition-S.
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      DvRow& row = dv_->row(r);
      const VertexId u = lg_.vertex_of(r);
      for (VertexId t = 0; t < row.size(); ++t) {
        if (row.dist(t) != kInfDist && !row.test_flag(t, DvRow::kQueued)) {
          row.set_flag(t, DvRow::kQueued);
          worklist_.emplace_back(u, t);
        }
      }
    }
  }
}

// ------------------------------------------------------------ RC main loop

void RankEngine::ingest_batch(const std::vector<Event>& events) {
  std::size_t i = 0;
  while (i < events.size()) {
    if (std::holds_alternative<VertexAddEvent>(events[i])) {
      std::vector<VertexAddEvent> run;
      while (i < events.size() &&
             std::holds_alternative<VertexAddEvent>(events[i])) {
        run.push_back(std::get<VertexAddEvent>(events[i]));
        ++i;
      }
      apply_vertex_batch(run);
      continue;
    }
    std::visit(
        [this](const auto& ev) {
          using T = std::decay_t<decltype(ev)>;
          if constexpr (std::is_same_v<T, EdgeAddEvent>) {
            apply_edge_add(ev);
          } else if constexpr (std::is_same_v<T, EdgeDeleteEvent>) {
            apply_edge_delete(ev);
          } else if constexpr (std::is_same_v<T, WeightChangeEvent>) {
            apply_weight_change(ev);
          } else if constexpr (std::is_same_v<T, VertexDeleteEvent>) {
            apply_vertex_delete(ev);
          }
        },
        events[i]);
    ++i;
  }
}

void RankEngine::boundary_fw_pass() {
  // The paper's alternative local refinement: one Floyd–Warshall-style pass
  // composing own distance-to-portal with the portal's cached row. Sound
  // only for additive workloads (see config.hpp); the driver enforces that.
  for (const auto& [b, cache] : caches_) {
    if (!lg_.is_portal(b)) continue;
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      // Whole-matrix refinement: dense access is inherent, promote per row.
      DvRow& row = dv_->row(r);
      const Dist dxb = row.dist(b);
      if (dxb == kInfDist) continue;
      const VertexId nh = row.next_hop(b);
      for (VertexId t = 0; t < cache.size(); ++t) {
        if (t == row.self()) continue;
        relax(row.self(), t, dist_add(dxb, cache[t]), nh);
      }
    }
  }
}

std::vector<std::string> RankEngine::check_invariants() const {
  std::vector<std::string> out;
  const auto report = [&out](VertexId x, VertexId t, const auto&... rest) {
    std::ostringstream os;
    os << '(' << x << ',' << t << ") ";
    (os << ... << rest);
    out.push_back(os.str());
  };
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    // Validation is a whole-matrix walk; const row access promotes cold
    // rows (observable state is unchanged — that is what const means here).
    const DvRow& row = dv_->row(r);
    const VertexId x = lg_.vertex_of(r);
    for (VertexId t = 0; t < row.size(); ++t) {
      if (t == x || row.dist(t) == kInfDist) continue;
      const VertexId nh = row.next_hop(t);
      if (nh == kNoVertex) {
        report(x, t, "finite without next hop");
        continue;
      }
      // nh must be a current neighbour.
      Weight w = 0;
      bool neighbour = false;
      for (const Edge& e : lg_.adj(r)) {
        if (e.to == nh) {
          neighbour = true;
          w = e.w;
          break;
        }
      }
      if (!neighbour) {
        report(x, t, "next hop ", nh, " is not a neighbour");
        continue;
      }
      Dist ref = kInfDist;
      if (nh == t) {
        ref = 0;
      } else if (lg_.is_local(nh)) {
        ref = dv_->probe_dist(static_cast<std::size_t>(lg_.row_of(nh)), t);
      } else {
        const auto it = caches_.find(nh);
        if (it == caches_.end()) continue;  // owner value unknown here
        ref = it->second[t];
      }
      if (ref == kInfDist) continue;  // reference unknown / poisoned
      if (row.dist(t) < dist_add(w, ref)) {
        report(x, t, "d=", row.dist(t), " < w(", w, ") + ref(", ref, ") via ",
               nh);
      }
    }
  }
  return out;
}

void RankEngine::record_step(std::size_t step) {
  // All counters are recorded cumulatively; the driver computes per-step
  // deltas when assembling RunStats.
  StepLocal rec;
  rec.step = step;
  rec.bytes_sent = comm_.ledger().bytes_sent;
  rec.relaxations = relaxations_;
  rec.poisons = poisons_;
  rec.repairs = repair_count_;
  rec.cpu_seconds = thread_cpu_now();
  rec.drain_cpu_seconds = drain_cpu_seconds_;
  rec.drain_modeled_seconds = drain_modeled_seconds_;
  rec.exchange_wait_seconds = exchange_wait_seconds_;
  rec.exchange_inflight = exchange_inflight_step_;  // per-step max, not delta
  rec.blocked_on_seconds = blocked_on_seconds_step_;  // ditto
  rec.blocked_on_rank = blocked_on_rank_step_;
  step_log_.push_back(rec);
  if (metrics_ != nullptr) {
    // Fold cumulative algorithm counters into the registry once per step
    // (the hot loops bump plain members; folded_ remembers what has already
    // been pushed). cpu_seconds is absolute thread time, not folded here —
    // the driver derives CPU gauges from the world's phase ledgers instead.
    m_relaxations_->add(relaxations_ - folded_.relaxations);
    m_poisons_->add(poisons_ - folded_.poisons);
    m_repairs_->add(repair_count_ - folded_.repairs);
    m_steps_->add(1);
    m_drain_cpu_->add(drain_cpu_seconds_ - folded_.drain_cpu_seconds);
    m_drain_modeled_->add(drain_modeled_seconds_ -
                          folded_.drain_modeled_seconds);
    m_exch_wait_->add(exchange_wait_seconds_ - folded_.exchange_wait_seconds);
    m_exch_inflight_->record(exchange_inflight_step_);
    // Residency gauges mirror the store's step-boundary accounting; the
    // monotone counters fold as deltas like the algorithm counters above.
    m_dv_resident_->set(static_cast<double>(dv_->resident_bytes()));
    m_dv_cold_->set(static_cast<double>(dv_->cold_bytes()));
    m_dv_promotions_->add(dv_->promotions() - folded_dv_promotions_);
    m_dv_demotions_->add(dv_->demotions() - folded_dv_demotions_);
    m_dv_decode_->add(dv_->decode_seconds() - folded_dv_decode_seconds_);
    folded_dv_promotions_ = dv_->promotions();
    folded_dv_demotions_ = dv_->demotions();
    folded_dv_decode_seconds_ = dv_->decode_seconds();
    folded_ = rec;
  }
  exchange_inflight_step_ = 0;  // per-step high-water, reset at each record
  blocked_on_seconds_step_ = 0.0;
  blocked_on_rank_step_ = -1;
}

std::vector<std::pair<VertexId, double>> RankEngine::local_top_harmonic(
    std::size_t k) const {
  std::vector<std::pair<VertexId, double>> all;
  all.reserve(dv_->size());
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    // Ascending-column summation order, exactly like the pre-bounded
    // snapshots: the k = 0 path stays bit-identical to the historical E3
    // output, and bounded runs agree with it on the surviving entries.
    // The store computes it from either residency form without promotion.
    all.emplace_back(dv_->self(r), dv_->harmonic(r));
  }
  if (k > 0 && all.size() > k) {
    const auto better = [](const std::pair<VertexId, double>& a,
                           const std::pair<VertexId, double>& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    };
    std::partial_sort(all.begin(),
                      all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                      better);
    all.resize(k);
  }
  return all;
}

void RankEngine::progress_step(const char* phase, std::size_t step) {
  if (!progress_active_) return;  // the whole feed costs this one test

  // ---- bounded local summary ----
  std::uint64_t settled = 0;
  std::uint64_t columns = 0;
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    settled += dv_->finite_count(r);
    columns += dv_->columns(r);
  }
  // Per-step churn deltas from the cumulative step log (same derivation
  // the driver uses for StepStats); empty log = the IA event, all zeros.
  StepLocal cur{};
  StepLocal prev{};
  if (!step_log_.empty()) cur = step_log_.back();
  if (step_log_.size() >= 2) prev = step_log_[step_log_.size() - 2];

  rt::ByteWriter w;
  w.write<std::uint64_t>(dirty_entries_);
  w.write<std::uint64_t>(settled);
  w.write<std::uint64_t>(columns);
  w.write<std::uint64_t>(cur.relaxations - prev.relaxations);
  w.write<std::uint64_t>(cur.poisons - prev.poisons);
  w.write<std::uint64_t>(cur.repairs - prev.repairs);
  w.write<std::uint64_t>(queue_depth_step_);
  w.write<std::uint64_t>(comm_.ledger().bytes_sent);
  w.write<std::uint64_t>(comm_.ledger().retransmits);
  w.write<double>(cur.exchange_wait_seconds - prev.exchange_wait_seconds);
  w.write<std::uint64_t>(cur.exchange_inflight);
  w.write<double>(cur.blocked_on_seconds);
  w.write<std::int64_t>(cur.blocked_on_rank);
  w.write<std::uint64_t>(dv_->resident_bytes());
  w.write<std::uint64_t>(dv_->cold_bytes());
  w.write<std::uint64_t>(dv_->promotions());
  w.write<std::uint64_t>(dv_->demotions());
  const std::size_t k = cfg_.progress.top_k;
  const auto top = local_top_harmonic(k);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(top.size()));
  for (const auto& [v, h] : top) {
    w.write<VertexId>(v);
    w.write<double>(h);
  }
  queue_depth_step_ = 0;

  // Deterministic fold to the driver rank. The gather is real transport
  // (ledger-accounted); a ghost contributes zero rows like any collective.
  const auto bufs = comm_.gather(w.take(), 0);
  if (progress_ == nullptr) return;  // non-driver ranks are done

  // ---- driver rank: merge in rank order, estimate, emit ----
  obs::ProgressEvent ev;
  ev.phase = phase;
  ev.step = step;
  ev.ranks = comm_.size();
  std::vector<std::pair<VertexId, double>> merged;
  for (const auto& buf : bufs) {
    rt::ByteReader r(buf);
    ev.dirty += r.read<std::uint64_t>();
    ev.settled += r.read<std::uint64_t>();
    ev.columns += r.read<std::uint64_t>();
    ev.relaxations += r.read<std::uint64_t>();
    ev.poisons += r.read<std::uint64_t>();
    ev.repairs += r.read<std::uint64_t>();
    const auto queued = r.read<std::uint64_t>();
    ev.queue_sum += queued;
    ev.queue_max = std::max(ev.queue_max, queued);
    ev.bytes += r.read<std::uint64_t>();
    ev.retransmits += r.read<std::uint64_t>();
    ev.exchange_wait_seconds += r.read<double>();
    ev.inflight_depth = std::max(ev.inflight_depth, r.read<std::uint64_t>());
    {
      // Global blocked-on attribution: the rank that blocked longest is
      // the step's live straggler candidate; keep its peer.
      const auto blocked_s = r.read<double>();
      const auto blocked_r = r.read<std::int64_t>();
      if (blocked_s > ev.blocked_on_seconds) {
        ev.blocked_on_seconds = blocked_s;
        ev.blocked_on_rank = blocked_r;
      }
    }
    ev.dv_resident_bytes += r.read<std::uint64_t>();
    ev.dv_cold_bytes += r.read<std::uint64_t>();
    ev.dv_promotions += r.read<std::uint64_t>();
    ev.dv_demotions += r.read<std::uint64_t>();
    const auto count = r.read<std::uint32_t>();
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto v = r.read<VertexId>();
      const auto h = r.read<double>();
      merged.emplace_back(v, h);
    }
  }
  ev.dirty_fraction =
      ev.columns == 0 ? 0.0
                      : static_cast<double>(ev.dirty) /
                            static_cast<double>(ev.columns);
  ev.recoveries = progress_->recoveries;
  // Vertices are uniquely owned, so the concatenation has no duplicate ids;
  // one sort gives the global bounded top-k.
  std::sort(merged.begin(), merged.end(),
            [](const std::pair<VertexId, double>& a,
               const std::pair<VertexId, double>& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  if (merged.size() > k) merged.resize(k);
  if (std::strcmp(phase, "rc_step") == 0 && !progress_->prev_top.empty()) {
    ev.has_estimators = true;
    ev.topk_overlap = top_k_overlap(progress_->prev_top, merged, k);
    ev.kendall_tau = kendall_tau(progress_->prev_top, merged);
  }
  ev.top.reserve(merged.size());
  for (const auto& [v, h] : merged) ev.top.push_back(v);
  progress_->prev_top = std::move(merged);
  if (serve_ != nullptr) {
    // Republish the estimator sample for query responses (the staleness
    // contract: every answer carries the latest convergence estimators),
    // and surface the serve counters in the feed itself.
    auto est = std::make_shared<serve::EstimatorSample>();
    est->step = step;
    est->has = ev.has_estimators;
    est->topk_overlap = ev.topk_overlap;
    est->kendall_tau = ev.kendall_tau;
    serve_->estimators.store(std::move(est));
    ev.has_serve = true;
    ev.serve_queries = serve_->queries.load(std::memory_order_relaxed);
    std::size_t oldest = step;
    for (const auto& cell : serve_->snapshots) {
      const auto snap = cell.read();
      oldest = std::min(oldest, snap ? snap->step : std::size_t{0});
    }
    ev.snapshot_age_steps = step - oldest;
    if (m_serve_age_ != nullptr) {
      m_serve_age_->record(ev.snapshot_age_steps);
    }
  }
  progress_->emit(ev);
}

void RankEngine::publish_snapshot(std::size_t step) {
  const Timer timer;
  auto& cell = serve_->snapshots[static_cast<std::size_t>(comm_.rank())];
  auto snap = std::make_shared<serve::SnapshotData>();
  {
    const auto prev = cell.read();
    snap->epoch = prev != nullptr ? prev->epoch + 1 : 1;
  }
  snap->step = step;
  snap->degraded = serve_->degraded.load(std::memory_order_relaxed);
  snap->adopted = adopted_;
  const std::size_t rows = dv_->size();  // 0 for ghosts: an empty snapshot
  publish_index_.clear();
  publish_index_.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    publish_index_.emplace_back(dv_->self(r), static_cast<std::uint32_t>(r));
  }
  std::sort(publish_index_.begin(), publish_index_.end());
  snap->ids.resize(rows);
  snap->closeness.resize(rows);
  snap->harmonic.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto [v, r] = publish_index_[i];
    snap->ids[i] = v;
    // Metadata reads — the tiered store serves them from either residency
    // form without promotion, so publication cannot perturb residency.
    snap->closeness[i] = dv_->closeness(r);
    snap->harmonic[i] = dv_->harmonic(r);
  }
  snap->by_closeness.resize(rows);
  std::iota(snap->by_closeness.begin(), snap->by_closeness.end(), 0U);
  std::sort(snap->by_closeness.begin(), snap->by_closeness.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return snap->closeness[a] != snap->closeness[b]
                         ? snap->closeness[a] > snap->closeness[b]
                         : snap->ids[a] < snap->ids[b];
            });
  cell.publish(std::move(snap));  // the O(1) swap — readers never waited
  if (m_serve_publishes_ != nullptr) {
    m_serve_publishes_->add(1);
    m_serve_publish_seconds_->add(timer.seconds());
  }
}

std::size_t RankEngine::run_rc() {
  comm_.set_phase("rc");
  std::size_t step = start_step_;
  std::size_t next_batch = start_batch_;
  const std::size_t num_batches = schedule_ != nullptr ? schedule_->size() : 0;
  // Live session: schedule_ is the replayed journal prefix (empty on a
  // first attempt); once it is consumed, fresh batches come from the feed.
  const bool live = serve_ != nullptr;

  for (;;) {
    cur_step_ = step;
    // Flow ids minted from here on carry this step (obs/causal.hpp); the
    // causal stitcher uses it to bound edges to their RC epoch.
    comm_.set_flow_step(static_cast<std::uint32_t>(step));
    // Opened before the crash hook so a mid-step InjectedCrash unwinds
    // through the span and the trace still shows the truncated step.
    const obs::ScopedSpan step_span(trace_, "rc_step", "step", step);
    // Chaos hook: a scheduled crash fires at the top of the RC step, before
    // this rank enters the step's first collective. Every survivor then
    // blocks inside that exchange (the all_to_all needs the dead rank) and
    // is interrupted there, so all survivors stop with the *same* (step,
    // batch) cursors — which is what makes the degraded restart coherent.
    if (!ghost_ && injector_ != nullptr &&
        injector_->should_crash(comm_.rank(), step)) {
      throw rt::InjectedCrash(comm_.rank(), step);
    }

    exchange();

    bool ingested = false;
    while (next_batch < num_batches &&
           (*schedule_)[next_batch].at_step <= step) {
      const obs::ScopedSpan ingest_span(trace_, "ingest", "batch", next_batch);
      // Rank 0 broadcasts the batch contents (accounted change feed). Every
      // rank serializes its own copy too: the schedule is replicated, so a
      // survivor whose tree parent died mid-broadcast reconstructs the
      // payload locally instead of stalling — the feed is data the rank
      // already has, only its distribution cost is being modeled
      // (docs/FAULTS.md §Shard adoption).
      rt::ByteWriter w;
      serialize_events((*schedule_)[next_batch].events, w);
      const std::vector<std::byte> feed = w.take();
      auto buf = comm_.broadcast(feed, 0, &feed);
      rt::ByteReader rd(buf);
      const auto events = deserialize_events(rd);
      ingest_batch(events);
      ingested = true;
      ++next_batch;
      cur_batch_ = next_batch;
    }

    // Live mutation feed: once the journal replay is exhausted, rank 0 pops
    // queued batches (journaling each at this step so recovery can replay
    // it), serializes and broadcasts them through the measured communicator
    // like any schedule batch. An empty broadcast payload is the "no more
    // this step" terminator — a real batch always serializes non-empty.
    // Runs on ghost seats too: the seat, not the process, owns the feed
    // role, so the protocol survives rank 0's death.
    if (live && next_batch >= num_batches) {
      for (;;) {
        std::vector<std::byte> feed;
        if (comm_.rank() == 0) {
          std::vector<Event> events;
          if (serve_->feed.try_pop(step, events)) {
            rt::ByteWriter w;
            serialize_events(events, w);
            feed = w.take();
          }
        }
        const auto buf = comm_.broadcast(std::move(feed), 0, nullptr);
        if (buf.empty()) break;
        const obs::ScopedSpan ingest_span(trace_, "ingest", "batch",
                                          next_batch);
        rt::ByteReader rd(buf);
        const auto events = deserialize_events(rd);
        ingest_batch(events);
        ingested = true;
        ++next_batch;
        cur_batch_ = next_batch;
      }
    }

    // Extension: automatic rebalancing when dynamic changes (typically
    // deletions) have skewed the load beyond the configured threshold.
    // The decision is a deterministic function of the shared owner map, so
    // every rank takes the same branch without communication.
    if (ingested && cfg_.rebalance_threshold > 0.0) {
      const auto loads = rank_loads(lg_.owner_map(), comm_.size());
      std::size_t alive = 0;
      std::size_t max_load = 0;
      for (const std::size_t l : loads) {
        alive += l;
        max_load = std::max(max_load, l);
      }
      const double ideal =
          static_cast<double>(alive) / static_cast<double>(comm_.size());
      if (ideal > 0.0 &&
          static_cast<double>(max_load) / ideal > cfg_.rebalance_threshold) {
        apply_repartition({});
      }
    }

    // Poison-synchronization barrier: all invalidations must settle on
    // every rank before any repair runs, otherwise two ranks can re-derive
    // distances from each other's stale entries and count to infinity.
    {
      const obs::ScopedSpan sync_span(trace_, "poison_sync");
      bool mine = poison_pending_;
      poison_pending_ = false;
      while (comm_.all_reduce_or(mine)) {
        mine = poison_sync_round();
      }
    }

    drain();
    if (cfg_.refine == RefineMode::kBoundaryFloydWarshall) {
      boundary_fw_pass();
      drain();
    }

    if (cfg_.validate_each_step) {
      const auto violations = check_invariants();
      invariant_violations_ += violations.size();
      for (const std::string& v : violations) {
        std::fprintf(stderr, "[rank %d step %zu] INVARIANT: %s\n",
                     comm_.rank(), step, v.c_str());
      }
    }

    if (cfg_.record_step_quality) {
      // Harmonic centrality is the anytime-safe quality metric: distance
      // upper bounds make it a monotone lower bound of the exact value,
      // whereas 1/Σ(known distances) overshoots while coverage is partial.
      // quality_top_k bounds the snapshot to the rank's best k vertices
      // (memory O(k · steps)); 0 keeps the full per-vertex snapshot.
      step_quality_.push_back(local_top_harmonic(cfg_.quality_top_k));
    }
    // Residency pass at the step boundary: the queues are empty (drain just
    // ran), so no demoted row can hold a kQueued flag — maintain()'s
    // precondition. record_step then folds the fresh residency gauges.
    maintain_store();
    record_step(step);
    if (live) {
      // Publish before the progress fold so the feed's snapshot-age sample
      // sees this step's snapshots; the final state is force-published at
      // loop exit whatever the cadence.
      if (step % cfg_.publish_every == 0) publish_snapshot(step);
      if (comm_.rank() == 0) {
        serve_->engine_step.store(step, std::memory_order_release);
      }
    }
    progress_step("rc_step", step);

    // MTTR probe: the first completed step at/after the death step marks
    // this rank recovered; the supervisor takes the max over ranks as the
    // recovery-complete instant. Rollback restarts earlier than the death
    // step, so its replay cost is inside the measured window by design.
    if (!ghost_ && !recovery_marked_ && recovery_mark_ != nullptr &&
        step >= recovery_mark_step_) {
      recovery_marked_ = true;
      const std::int64_t now =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count();
      std::int64_t cur = recovery_mark_->load(std::memory_order_relaxed);
      while (cur < now && !recovery_mark_->compare_exchange_weak(
                              cur, now, std::memory_order_relaxed)) {
      }
    }

    if (!ghost_ && periodic_ != nullptr && cfg_.checkpoint_every > 0 &&
        step % cfg_.checkpoint_every == 0) {
      // Recovery snapshot: taken after drain, so the local queues are empty
      // and the blob captures a step boundary. Each rank writes only its
      // own slot (no locking; see PeriodicCheckpoints).
      const obs::ScopedSpan ckpt_span(trace_, "checkpoint", "step", step);
      rt::ByteWriter w;
      serialize_state(w);
      periodic_->store(comm_.rank(), step, w.take());
    }

    if (step == cfg_.checkpoint_at_step) {
      // Fault-tolerance drill: persist and stop. All ranks share `step`,
      // so the exit is collective without extra messages.
      AACC_CHECK_MSG(checkpoint_slot_ != nullptr,
                     "checkpoint_at_step set without a checkpoint slot");
      const obs::ScopedSpan ckpt_span(trace_, "checkpoint", "step", step);
      rt::ByteWriter w;
      serialize_state(w);
      *checkpoint_slot_ = w.take();
      ++step;
      break;
    }

    bool pending = dirty_entries_ > 0 || next_batch < num_batches;
    if (live && comm_.rank() == 0) {
      pending = pending || serve_->feed.has_ready();
    }
    const bool any_pending = comm_.all_reduce_or(pending);
    ++step;
    if (!any_pending) {
      if (!live) break;
      // Quiescent with an open feed: the fixpoint is reached and published,
      // so rank 0 blocks until the session ingests more or closes, then
      // broadcasts the verdict (1 = new work, 0 = closed and drained). The
      // other ranks block inside this broadcast — which is why a live
      // session disables the recv watchdog and peer-health supervision: an
      // idle feed is indistinguishable from a wedged peer.
      std::vector<std::byte> verdict(1, std::byte{0});
      if (comm_.rank() == 0 && serve_->feed.wait_ready()) {
        verdict[0] = std::byte{1};
      }
      const auto buf = comm_.broadcast(std::move(verdict), 0, nullptr);
      if (buf.at(0) == std::byte{0}) break;
    }
    if (cfg_.max_rc_steps != 0 && step >= cfg_.max_rc_steps) break;
  }
  if (live) {
    // Terminal snapshots: whatever the publish cadence, a closed (or
    // capped) session serves the exact final state at zero staleness. The
    // feed is closed on every exit path (a max_rc_steps cap included) so a
    // late ingest fails fast instead of queuing into the void.
    publish_snapshot(cur_step_);
    if (comm_.rank() == 0) {
      serve_->feed.close();
      serve_->engine_step.store(cur_step_, std::memory_order_release);
    }
  }
  return step;
}

}  // namespace aacc
