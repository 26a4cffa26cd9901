// Per-rank engine of the anytime anywhere closeness-centrality algorithm.
//
// One RankEngine instance runs on each logical processor inside a
// rt::World. It owns:
//   * a LocalGraph (its sub-graph, portal adjacency, owner map),
//   * one DvRow per local vertex (distances + next hops to all vertices),
//   * portal caches: the latest received distance rows of external boundary
//     vertices,
//   * the relaxation worklist and the poison/repair queues.
//
// Protocol invariant (what makes dynamic deletions sound at any RC step):
// every finite entry satisfies  d[x][t] >= w(x, nh) + d[nh][t]  where nh is
// a *current neighbour* of x and d[nh][t] is either a local row entry or a
// portal cache entry. Values only decrease, except via explicit poisoning
// (set to infinity + cascade to dependents + queued repair). Edge weights
// are >= 1, so next-hop chains strictly decrease in distance and terminate.
//
// See DESIGN.md §"Deletions via DVR route poisoning".
#pragma once

#include <atomic>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/dv_matrix.hpp"
#include "core/dv_store.hpp"
#include "core/events.hpp"
#include "core/local_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/faults.hpp"
#include "runtime/serialize.hpp"
#include "serve/context.hpp"

namespace aacc {

/// Per-RC-step counters recorded by each rank (assembled by the driver).
struct StepLocal {
  std::size_t step = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t relaxations = 0;  ///< successful distance decreases
  std::uint64_t poisons = 0;      ///< entries invalidated
  std::uint64_t repairs = 0;      ///< repair attempts processed
  double cpu_seconds = 0.0;
  /// CPU spent inside drain(): Σ over shard workers (the work), and the
  /// modeled parallel makespan (serial partition/merge + slowest shard) —
  /// the single-core stand-in for multicore drain wall time, mirroring the
  /// LogGP treatment of ranks. Equal on the serial path.
  double drain_cpu_seconds = 0.0;
  double drain_modeled_seconds = 0.0;
  /// Wall seconds this rank spent blocked in exchange recvs (cumulative,
  /// like the counters above — the overlap win shows up as this shrinking).
  double exchange_wait_seconds = 0.0;
  /// Max sends in flight ahead of the completed recvs across this step's
  /// collectives. Per-step maximum, NOT cumulative: the driver folds it
  /// with max, not delta.
  std::uint64_t exchange_inflight = 0;
  /// Live critical-path proxy: the longest single blocked recv interval
  /// across this step's exchanges, and the peer whose arrival ended it
  /// (-1 = never blocked). Per-step values, NOT cumulative — the driver
  /// keeps the max across ranks.
  double blocked_on_seconds = 0.0;
  std::int64_t blocked_on_rank = -1;
};

class RankEngine {
 public:
  /// Shard-adoption plan (docs/FAULTS.md §Shard adoption): survivors split
  /// the newly dead ranks' rows among themselves. `sources` holds each dead
  /// rank's latest periodic-checkpoint blob (structure only is consumed:
  /// row *values* are re-derived from the survivors' live state via the
  /// quiet repair pass, because post-snapshot deletions make blob values
  /// potentially stale-low). The schedule batches in
  /// [replay_from_batch, start_batch) are replayed structurally so edges
  /// the snapshot predates — including edges between two dead-owned
  /// vertices that no survivor's stash saw — reappear.
  struct AdoptShards {
    /// (dead rank, its latest snapshot blob), one entry per newly dead rank.
    std::vector<std::pair<Rank, const std::vector<std::byte>*>> sources;
    /// First schedule batch whose structural effects may be missing from
    /// every source blob (min over sources of the first batch after its
    /// snapshot step).
    std::size_t replay_from_batch = 0;
  };

  struct Init {
    Rank me = 0;
    Rank world = 1;
    /// Owner per vertex id (identical on all ranks).
    std::vector<Rank> owner;
    /// Full edge list; the engine keeps only locally incident edges.
    const std::vector<std::tuple<VertexId, VertexId, Weight>>* edges = nullptr;
    /// The event schedule (all ranks hold the step indices; batch contents
    /// are broadcast from rank 0 at ingestion time for honest accounting).
    const EventSchedule* schedule = nullptr;
    EngineConfig cfg;
    /// Resume path: when set, all state comes from this serialized blob
    /// (owner/edges above are ignored) and the RC loop continues at
    /// start_step / start_batch.
    const std::vector<std::byte>* restore_blob = nullptr;
    std::size_t start_step = 0;
    std::size_t start_batch = 0;
    /// Checkpoint path: when the RC loop reaches cfg.checkpoint_at_step it
    /// serializes into this slot and stops.
    std::vector<std::byte>* checkpoint_slot = nullptr;
    /// Recovery checkpointing: with cfg.checkpoint_every > 0, the rank
    /// snapshots its state into this store each k RC steps.
    PeriodicCheckpoints* periodic = nullptr;
    /// Chaos hook: polled at each RC step boundary; a scheduled crash
    /// throws rt::InjectedCrash out of run_rc. Non-owning.
    rt::FaultInjector* injector = nullptr;
    /// Degraded mode (docs/FAULTS.md): a ghost stands in for a dead rank so
    /// the SPMD collectives stay in lockstep. It owns no rows (its
    /// LocalGraph `me` is an impossible rank) but tracks the owner map and
    /// consumes the event feed like everyone else.
    bool ghost = false;
    /// Degraded mode: on construction, poison every portal-cache entry
    /// owned by these (dead) ranks — their rows are lost, so every value
    /// routed through them must be re-derived from surviving routes.
    std::vector<Rank> poison_ranks;
    /// Round-robin assignment cursor for a ghost (survivors restore theirs
    /// from the blob; the ghost must agree or owner maps diverge).
    std::uint64_t start_vertices_added = 0;
    /// Shard adoption (survivors of an adopt-mode restart only): after the
    /// stash restore, the engine rebuilds its topology under `owner` (the
    /// rewritten map — the one Init field the restore path otherwise
    /// ignores), installs fresh rows for its adopted vertices and queues
    /// their quiet re-derivation. Non-owning.
    const AdoptShards* adopt = nullptr;
    /// Ranks excluded from round-robin vertex assignment (adopt-mode
    /// restarts: a vertex dealt to a ghost seat would be lost again).
    /// Identical on every rank or owner maps diverge. Empty = no exclusion.
    std::vector<Rank> assign_skip;
    /// MTTR probe (docs/FAULTS.md §Recovery timing): when the RC loop
    /// completes a step >= recovery_mark_step, the rank folds steady-clock
    /// now into *recovery_mark (fetch-max, once per rank) — the supervisor
    /// reads the max as "recovery complete" and subtracts the death
    /// declaration time. Ghosts do not write. Non-owning, nullable.
    std::size_t recovery_mark_step = static_cast<std::size_t>(-1);
    std::atomic<std::int64_t>* recovery_mark = nullptr;
    /// Observability (non-owning, both nullable). The tracer provides this
    /// rank's main track and drain-shard subtracks; the registry receives
    /// per-step counter folds (owned by the driver so it survives
    /// supervised attempts, like the runtime ledgers).
    obs::Tracer* tracer = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    /// Progress feed (docs/OBSERVABILITY.md §Progress events): non-null on
    /// the driver rank (rank 0) only, and only when cfg.progress is active.
    /// Every rank still participates in the per-step telemetry gather
    /// (cfg.progress.active() is the SPMD-consistent switch); rank 0 merges
    /// and emits. Driver-owned so estimator state survives attempts.
    obs::ProgressEmitter* progress = nullptr;
    /// Live session context (docs/API.md §"Serving sessions"): non-null on
    /// every rank of an EngineSession run, null under batch run(). Turns on
    /// snapshot publication at publish_every granularity, the live mutation
    /// feed (rank 0 pops BatchFeed batches and broadcasts them once the
    /// replayed journal prefix is consumed) and the quiescent idle-wait
    /// instead of loop termination. Non-owning; outlives the rank threads.
    serve::ServeContext* serve = nullptr;
  };

  RankEngine(const Init& init, rt::Comm& comm);

  /// Serializes the full resumable state (topology view, DV rows with
  /// pending-send flags, portal caches, cursors).
  void serialize_state(rt::ByteWriter& w) const;

  /// Phase 2: local APSP over the rank's sub-graph (portals are reachable
  /// leaves but are not expanded — see header comment).
  void run_ia();

  /// Phase 3: recombination loop until global quiescence. Returns the
  /// number of RC steps executed.
  std::size_t run_rc();

  /// Debug/test hook: checks the DVR protocol invariant on every finite
  /// entry — the next hop is a current neighbour and
  /// d[x][t] >= w(x,nh) + d[nh][t] where the reference value comes from a
  /// local row or the portal cache (entries referencing an empty cache slot
  /// are reported with reference infinity and are allowed: the owner's
  /// value is simply unknown here). Returns human-readable violation
  /// descriptions (empty = consistent).
  [[nodiscard]] std::vector<std::string> check_invariants() const;

  // ---- post-run extraction (driver side; no communication) ----
  [[nodiscard]] const LocalGraph& local_graph() const { return lg_; }
  /// The DV row store (resident or tiered; see dv_store.hpp). Metadata
  /// reads (self/closeness/harmonic) never promote; store().row(i) does.
  [[nodiscard]] const DvStore& store() const { return *dv_; }
  [[nodiscard]] const std::vector<StepLocal>& step_log() const { return step_log_; }
  /// Total invariant violations observed (only counted when
  /// cfg.validate_each_step; must be zero on a healthy run).
  [[nodiscard]] std::size_t invariant_violations() const {
    return invariant_violations_;
  }
  /// Per-step (vertex, harmonic centrality) snapshots; filled when
  /// cfg.record_step_quality is set.
  [[nodiscard]] const std::vector<std::vector<std::pair<VertexId, double>>>&
  step_quality() const {
    return step_quality_;
  }
  /// Supervision hooks: loop cursors at the moment run_rc stopped (used to
  /// stash survivor state after a peer failure) and the round-robin cursor
  /// (used to seed a ghost).
  [[nodiscard]] std::size_t current_step() const { return cur_step_; }
  [[nodiscard]] std::size_t current_batch() const { return cur_batch_; }
  [[nodiscard]] std::uint64_t vertices_added() const { return vertices_added_; }

 private:
  // ---- relaxation machinery ----
  /// Mutation sink for the relaxation kernel. Serial entry points bind it
  /// to the engine-level queues/counters and mutate rows directly
  /// (deltas == nullptr); each drain shard binds its own queues, counters
  /// and per-row delta buffers, so the parallel hot path takes no locks and
  /// touches no shared aggregate.
  struct ShardCtx {
    std::deque<std::pair<VertexId, VertexId>>* worklist = nullptr;
    std::deque<std::pair<VertexId, VertexId>>* repairs = nullptr;
    std::uint64_t* relaxations = nullptr;
    std::uint64_t* dirty_entries = nullptr;
    std::uint64_t* repairs_run = nullptr;
    std::vector<DvRowDelta>* deltas = nullptr;   // null => direct row mutation
    std::vector<std::uint32_t>* touched = nullptr;  // rows with live deltas
  };
  /// Reusable per-shard drain state (worklists keyed by t mod shards).
  struct RcShard {
    std::deque<std::pair<VertexId, VertexId>> worklist;
    std::deque<std::pair<VertexId, VertexId>> repairs;
    std::vector<DvRowDelta> deltas;      // one slot per local row
    std::vector<std::uint32_t> touched;  // rows whose delta is live
    std::uint64_t relaxations = 0;
    std::uint64_t dirty_entries = 0;
    std::uint64_t repairs_run = 0;
    double cpu_seconds = 0.0;
  };
  /// Reusable per-worker send-assembly state for exchange().
  struct SendShard {
    std::vector<rt::ByteWriter> writers;  // one per destination rank
    std::vector<std::size_t> sent_rows;
    std::vector<Rank> subs;
    std::vector<VertexId> dirty_cols;
    std::vector<std::pair<VertexId, Dist>> entries;
    rt::ByteWriter record;
  };

  [[nodiscard]] ShardCtx serial_ctx();
  void relax(ShardCtx& ctx, VertexId x, VertexId t, Dist nd, VertexId nh);
  void relax(VertexId x, VertexId t, Dist nd, VertexId nh);
  void drain();
  void drain_parallel(std::size_t shards);
  void propagate(ShardCtx& ctx, VertexId x, VertexId t);
  void repair(ShardCtx& ctx, VertexId x, VertexId t);
  [[nodiscard]] std::size_t rc_thread_count() const;
  /// Transitively invalidates every local entry whose next-hop chain passes
  /// through a seed; seeds are (vertex, target) pairs already known bad.
  void poison_cascade(std::deque<std::pair<VertexId, VertexId>> seeds);
  void poison_entry(std::size_t row, VertexId t,
                    std::deque<std::pair<VertexId, VertexId>>& queue);

  // ---- portal cache ----
  std::vector<Dist>& cache_of(VertexId portal);
  /// Portal b as the apply path sees it: its cache row and its local
  /// neighbours, resolved once per incoming record (or poison/re-seed
  /// sweep) instead of once per entry.
  struct PortalView {
    VertexId b;
    std::vector<Dist>& cache;
    std::span<const std::pair<VertexId, Weight>> neighbors;
  };
  /// Creates b's cache row on first use; b must be a portal.
  [[nodiscard]] PortalView portal_view(VertexId b);
  /// Folds the owner's value d for target t into b's cache: an increase or
  /// a poison marker cascades, a finite value relaxes b's neighbours.
  void apply_portal_value(const PortalView& pv, VertexId t, Dist d);

  // ---- RC step pieces ----
  void exchange();
  void apply_incoming(const std::vector<std::vector<std::byte>>& in);
  /// Decodes one peer's exchange payload and applies it (portal values
  /// relax/cascade; non-portal records drop the stale cache). Unit of the
  /// pipelined arrival-order apply.
  void apply_incoming_payload(Rank q, std::span<const std::byte> payload);
  /// Effective send-window depth for the pipelined/async exchange:
  /// cfg.exchange_window clamped to [1, P-1], 0 = auto = P-1.
  [[nodiscard]] Rank effective_exchange_window() const;
  /// Async-mode overlap: runs queued worklist propagation (never repairs —
  /// those wait for the poison barrier) between exchange arrivals.
  void drain_overlap();
  /// Records a finished collective's overlap telemetry (wait seconds,
  /// in-flight high-water) into the step accounting and trace.
  void note_exchange_overlap(const rt::PendingAllToAll& pending);
  /// One round of the poison-synchronization barrier: sends only the
  /// newly-invalidated (infinite) boundary entries, applies received
  /// poisons, cascades. Returns whether this rank generated new poisons.
  /// Repairs are deferred until the barrier drains globally — this is what
  /// prevents the classic distance-vector count-to-infinity: no repair may
  /// read a value whose witness chain is already known to be dead
  /// elsewhere.
  bool poison_sync_round();
  void ingest_batch(const std::vector<Event>& events);
  void record_step(std::size_t step);
  /// Progress telemetry (collective when cfg.progress is active, no-op
  /// otherwise): every rank gathers a bounded summary — dirty/settled
  /// counts, per-step churn deltas, queue depth, transport health, local
  /// top-k harmonic pairs — to the driver rank, which merges them in rank
  /// order, computes the online estimators vs the previous step's top-k,
  /// and emits one ProgressEvent. Called after record_step so the emitted
  /// step matches the folded metrics.
  void progress_step(const char* phase, std::size_t step);
  /// Local (vertex, harmonic) pairs, truncated to the best k by
  /// (score desc, id asc) when 0 < k < row count; unsorted row order
  /// otherwise (k = 0 means unbounded).
  [[nodiscard]] std::vector<std::pair<VertexId, double>> local_top_harmonic(
      std::size_t k) const;
  /// Live sessions only: builds a fresh immutable snapshot of this rank's
  /// closeness/harmonic values (store metadata reads — no promotion, so
  /// publication never perturbs tiered residency) and publishes it into the
  /// rank's SnapshotCell with one atomic pointer swap. Ghosts publish empty
  /// snapshots, which is what retires a dead seat's stale data from the
  /// query surface. `step` follows the progress feed's step indexing.
  void publish_snapshot(std::size_t step);

  // ---- event application ----
  void apply_edge_add(const EdgeAddEvent& e);
  void apply_edge_delete(const EdgeDeleteEvent& e);
  void apply_weight_change(const WeightChangeEvent& e);
  void apply_vertex_delete(const VertexDeleteEvent& e);
  /// Contiguous run of vertex additions, assigned by cfg.assign.
  void apply_vertex_batch(const std::vector<VertexAddEvent>& batch);
  void apply_repartition(const std::vector<VertexAddEvent>& batch);

  void eager_edge_relax(const EdgeAddEvent& e);
  void seed_through_edge(VertexId x, VertexId z, Weight w);
  void poison_first_hops(VertexId u, VertexId v,
                         std::deque<std::pair<VertexId, VertexId>>& seeds);
  void grow_columns(VertexId count);
  void add_local_row(VertexId v);
  void remove_local_row(std::int32_t row);
  void mark_finite_dirty(std::size_t row);
  void boundary_fw_pass();

  // ---- tiered-store residency (dv_store.hpp) ----
  /// End-of-step residency pass: rebuilds the boundary-row flag vector and
  /// lets the store demote settled rows back under budget. Called only when
  /// the worklist and repair queues are empty (no kQueued flag may survive
  /// demotion).
  void maintain_store();
  /// Exchange-overlap prefetch: while a collective still has arrivals in
  /// flight, decode up to `budget` cold rows that the queued worklist /
  /// repair items will touch in the next drain. Pure residency: promotion
  /// never changes observable row state, so results are identical with any
  /// prefetch schedule. The cursors persist across calls within one
  /// collective and are reset when it starts (or when drain_overlap empties
  /// the queues).
  void prefetch_pending(std::size_t budget);
  void reset_prefetch_cursors() {
    prefetch_work_pos_ = 0;
    prefetch_repair_pos_ = 0;
  }

  /// One IA Dijkstra source (row r) using caller-owned scratch buffers;
  /// `dirty_added` receives the row's newly-dirty entry count.
  void ia_source(std::size_t r, std::vector<Dist>& dist,
                 std::vector<VertexId>& hop, std::vector<VertexId>& touched,
                 std::uint64_t& dirty_added);
  [[nodiscard]] std::size_t ia_thread_count() const;

  /// Deserializes a checkpoint blob; malformed/truncated input raises
  /// CheckpointError with rank context (restore_state wraps the reader's
  /// logic_errors; _impl does the parsing).
  void restore_state(std::span<const std::byte> blob);
  void restore_state_impl(std::span<const std::byte> blob);

  /// Adopt-mode restart (called from the constructor after the stash
  /// restore): rebuilds the topology under the rewritten owner map from the
  /// union of this rank's live edges, the dead ranks' snapshot edges and
  /// the structurally replayed schedule batches; installs fresh rows for
  /// adopted vertices and queues their re-derivation (quiet poison — no
  /// markers broadcast, the graph did not change); marks every boundary
  /// row's finite entries dirty so rewired subscriptions repopulate.
  void adopt_shards(const Init& init);

  rt::Comm& comm_;
  EngineConfig cfg_;
  const EventSchedule* schedule_;
  std::size_t start_step_ = 0;
  std::size_t start_batch_ = 0;
  std::vector<std::byte>* checkpoint_slot_ = nullptr;
  PeriodicCheckpoints* periodic_ = nullptr;
  rt::FaultInjector* injector_ = nullptr;
  bool ghost_ = false;
  std::size_t cur_step_ = 0;
  std::size_t cur_batch_ = 0;
  LocalGraph lg_;
  /// The DV row collection, behind the pluggable residency layer
  /// (ResidentDvStore when cfg.dv_budget_bytes == 0, TieredDvStore
  /// otherwise). All row access goes through this store.
  std::unique_ptr<DvStore> dv_;
  std::unordered_map<VertexId, std::vector<Dist>> caches_;
  std::deque<std::pair<VertexId, VertexId>> worklist_;  // (vertex, target)
  std::deque<std::pair<VertexId, VertexId>> repairs_;
  std::uint64_t dirty_entries_ = 0;   // pending un-sent changes
  std::uint64_t vertices_added_ = 0;  // round-robin cursor (globally consistent)
  bool poison_pending_ = false;       // new poisons since the last sync round
  std::vector<Rank> assign_skip_;     // see Init::assign_skip

  // MTTR probe (see Init): fold steady-now into *recovery_mark_ once, at
  // the first completed step >= recovery_mark_step_.
  std::size_t recovery_mark_step_ = static_cast<std::size_t>(-1);
  std::atomic<std::int64_t>* recovery_mark_ = nullptr;
  bool recovery_marked_ = false;

  // Reusable scratch, cleared in place each step instead of reallocated:
  // drain shards, exchange() send-assembly shards (one in the serial case),
  // and the poison_sync_round() buffers.
  std::vector<RcShard> rc_shards_;
  std::vector<SendShard> send_shards_;
  std::vector<Rank> exch_subs_;
  std::vector<VertexId> exch_dirty_cols_;
  std::vector<std::pair<VertexId, Dist>> exch_entries_;
  rt::ByteWriter exch_record_;
  /// poison_sync_round() per-destination writers + sent markers.
  std::vector<rt::ByteWriter> sync_writers_;
  std::vector<std::pair<std::size_t, VertexId>> sync_markers_;
  std::vector<std::pair<VertexId, Dist>> sync_scratch_;
  /// Pipelined exchange: (row, count) spans into exch_cleared_cols_
  /// recording exactly which dirty columns the retire step cleared, so an
  /// aborted collective can re-mark its pending sends before the recovery
  /// stash is taken (deterministic mode never needs this — it retires only
  /// after the full collective returns).
  std::vector<std::pair<std::size_t, std::size_t>> exch_cleared_spans_;
  std::vector<VertexId> exch_cleared_cols_;
  /// Exchange-overlap prefetch cursors into worklist_/repairs_ (see
  /// prefetch_pending) and the reusable boundary-flag vector maintain_store
  /// hands to DvStore::maintain.
  std::size_t prefetch_work_pos_ = 0;
  std::size_t prefetch_repair_pos_ = 0;
  std::vector<std::uint8_t> boundary_flags_;

  // Observability. trace_ is this rank's main track (null = off); shard
  // workers fetch their subtrack from tracer_. The cached instrument
  // pointers make the once-per-step metric folds map-lookup-free;
  // folded_ holds the cumulative counter values already pushed to the
  // registry (record_step folds the delta).
  obs::Tracer* tracer_ = nullptr;
  obs::TraceTrack* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_relaxations_ = nullptr;
  obs::Counter* m_poisons_ = nullptr;
  obs::Counter* m_repairs_ = nullptr;
  obs::Counter* m_steps_ = nullptr;
  obs::Gauge* m_drain_cpu_ = nullptr;
  obs::Gauge* m_drain_modeled_ = nullptr;
  obs::Histogram* m_queue_depth_ = nullptr;
  obs::Gauge* m_exch_wait_ = nullptr;
  obs::Histogram* m_exch_inflight_ = nullptr;
  obs::Gauge* m_dv_resident_ = nullptr;
  obs::Gauge* m_dv_cold_ = nullptr;
  obs::Counter* m_dv_promotions_ = nullptr;
  obs::Counter* m_dv_demotions_ = nullptr;
  obs::Gauge* m_dv_decode_ = nullptr;
  StepLocal folded_{};
  // Cumulative store counters already pushed to the registry (the dv
  // analogue of folded_).
  std::uint64_t folded_dv_promotions_ = 0;
  std::uint64_t folded_dv_demotions_ = 0;
  double folded_dv_decode_seconds_ = 0.0;
  // Progress feed. progress_active_ caches cfg_.progress.active() (the
  // SPMD-consistent switch every rank tests once per step); progress_ is
  // the driver rank's emitter (null elsewhere). queue_depth_step_
  // accumulates drain()-entry queue depths within the current step and is
  // reset by progress_step.
  bool progress_active_ = false;
  obs::ProgressEmitter* progress_ = nullptr;
  std::uint64_t queue_depth_step_ = 0;
  // Live session (see Init::serve). adopted_ marks this rank as carrying
  // adopted shards (recovery provenance stamped into its snapshots);
  // publish_index_ is the reusable (vertex, row) scratch publish_snapshot
  // argsorts. Serve metrics exist only when both serve_ and metrics_ do.
  serve::ServeContext* serve_ = nullptr;
  bool adopted_ = false;
  std::vector<std::pair<VertexId, std::uint32_t>> publish_index_;
  obs::Counter* m_serve_publishes_ = nullptr;
  obs::Gauge* m_serve_publish_seconds_ = nullptr;
  obs::Histogram* m_serve_age_ = nullptr;

  // step accounting
  std::size_t invariant_violations_ = 0;
  std::uint64_t relaxations_ = 0;
  std::uint64_t poisons_ = 0;
  std::uint64_t repair_count_ = 0;
  double drain_cpu_seconds_ = 0.0;      // cumulative, see StepLocal
  double drain_modeled_seconds_ = 0.0;  // cumulative, see StepLocal
  double exchange_wait_seconds_ = 0.0;  // cumulative, see StepLocal
  std::uint64_t exchange_inflight_step_ = 0;  // per-step max; record_step resets
  double blocked_on_seconds_step_ = 0.0;      // per-step max; record_step resets
  std::int64_t blocked_on_rank_step_ = -1;    // peer behind the max above
  std::vector<StepLocal> step_log_;
  std::vector<std::vector<std::pair<VertexId, double>>> step_quality_;
};

}  // namespace aacc
