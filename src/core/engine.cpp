#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "analysis/closeness.hpp"
#include "analysis/quality.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/rank_engine.hpp"
#include "runtime/comm.hpp"
#include "serve/context.hpp"
#include "runtime/serialize.hpp"

namespace aacc {

void RunStats::accumulate(const RunStats& other) {
  wall_seconds += other.wall_seconds;
  dd_seconds += other.dd_seconds;
  total_cpu_seconds += other.total_cpu_seconds;
  max_rank_cpu_seconds += other.max_rank_cpu_seconds;
  for (const auto& [phase, secs] : other.cpu_by_phase) cpu_by_phase[phase] += secs;
  total_bytes += other.total_bytes;
  total_messages += other.total_messages;
  frame_overhead_bytes += other.frame_overhead_bytes;
  retransmits += other.retransmits;
  rc_steps += other.rc_steps;
  steps.insert(steps.end(), other.steps.begin(), other.steps.end());
  rc_drain_cpu_seconds += other.rc_drain_cpu_seconds;
  rc_exchange_wait_seconds += other.rc_exchange_wait_seconds;
  rc_blocked_on_seconds += other.rc_blocked_on_seconds;
  for (const auto& [rank, secs] : other.rc_blocked_on_by_rank) {
    rc_blocked_on_by_rank[rank] += secs;
  }
  histogram_summary = other.histogram_summary;  // registry is cumulative
  recoveries += other.recoveries;
  recovery_log.insert(recovery_log.end(), other.recovery_log.begin(),
                      other.recovery_log.end());
  cut_edges_initial = other.cut_edges_initial;  // latest run's view
  cut_edges_final = other.cut_edges_final;
  imbalance_final = other.imbalance_final;
  dv_resident_bytes = other.dv_resident_bytes;  // step-boundary gauges
  dv_cold_bytes = other.dv_cold_bytes;
  dv_promotions += other.dv_promotions;  // run totals
  dv_demotions += other.dv_demotions;
  dv_decode_seconds += other.dv_decode_seconds;
}

AnytimeEngine::AnytimeEngine(Graph g, EngineConfig cfg)
    : graph_(std::move(g)), cfg_(cfg) {
  cfg_.validate();
}

AnytimeEngine::AnytimeEngine(Graph g, Checkpoint checkpoint, EngineConfig cfg)
    : graph_(std::move(g)), cfg_(cfg), resume_(std::move(checkpoint)),
      resuming_(true) {
  cfg_.validate();
  // Structural validation up front (CheckpointError on shape/world-size
  // mismatch, bad magic header, unknown version); deep blob truncation is
  // caught on restore inside the rank threads.
  validate_checkpoint(resume_, cfg_.num_ranks);
  // Don't immediately re-checkpoint at the same step on resume.
  if (cfg_.checkpoint_at_step <= resume_.step) {
    cfg_.checkpoint_at_step = kNoCheckpointStep;
  }
}

double RunResult::closeness_of(VertexId v) const { return closeness.at(v); }

double RunResult::harmonic_of(VertexId v) const { return harmonic.at(v); }

std::vector<VertexId> RunResult::top_closeness(std::size_t k) const {
  return top_k(closeness, k);
}

std::vector<VertexId> RunResult::top_harmonic(std::size_t k) const {
  return top_k(harmonic, k);
}

RunResult AnytimeEngine::run(const EventSchedule& schedule) {
  if (ran_) {
    throw EngineStateError(
        "AnytimeEngine::run is one-shot: the distributed state was consumed "
        "by the first run; construct a new engine (or resume from a "
        "checkpoint) to run again");
  }
  ran_ = true;

  // Validate schedule ordering and refine-mode soundness.
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    AACC_CHECK_MSG(schedule[i - 1].at_step <= schedule[i].at_step,
                   "EventSchedule must be sorted by at_step");
  }
  if (cfg_.refine == RefineMode::kBoundaryFloydWarshall) {
    for (const EventBatch& b : schedule) {
      for (const Event& e : b.events) {
        AACC_CHECK_MSG(!std::holds_alternative<EdgeDeleteEvent>(e) &&
                           !std::holds_alternative<WeightChangeEvent>(e) &&
                           !std::holds_alternative<VertexDeleteEvent>(e),
                       "boundary-FW refinement is additive-only (see config.hpp)");
      }
    }
  }

  detail::DriverArgs args;
  args.graph = &graph_;
  args.cfg = cfg_;
  args.schedule = &schedule;
  args.resume = &resume_;
  args.resuming = resuming_;
  return detail::run_driver(args);
}

namespace {

using EdgeList = std::vector<std::tuple<VertexId, VertexId, Weight>>;

const Checkpoint kNoResume;  // DriverArgs::resume when nothing is resumed

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Rethrows a failed attempt's root cause: the first error that is not a
/// survivor's PeerFailedError (collateral damage), else the first error.
[[noreturn]] void rethrow_root(const rt::World::RunReport& report) {
  for (const Rank r : report.failed) {
    try {
      std::rethrow_exception(report.errors[static_cast<std::size_t>(r)]);
    } catch (const rt::PeerFailedError&) {
      // collateral; keep looking for the root cause
    }
  }
  std::rethrow_exception(
      report.errors[static_cast<std::size_t>(report.failed.front())]);
}

/// The recovery supervisor behind detail::run_driver (docs/FAULTS.md
/// §Recovery policy ladder). One instance per run owns the rank world and
/// everything that must outlive a supervised attempt. Each attempt starts
/// in one of three launch modes; after a declared death the supervisor
/// walks the policy ladder, one member function per rung, and relaunches.
/// Batch mode and live mode share it: in live mode the consumed-batch
/// journal is the schedule. The journal only grows while rank threads run,
/// so every copy taken here (start, after a failed attempt, before result
/// assembly — all joined-world points) is a coherent replay prefix.
class Supervisor {
 public:
  explicit Supervisor(const detail::DriverArgs& args);
  // Rank threads hold `this` while an attempt runs.
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;
  RunResult run();

 private:
  /// How the next attempt's ranks start.
  enum class Launch {
    kFresh,   // owner map from the DD partition, IA, then RC
    kResume,  // every rank restores *restart_ (resume or rollback)
    kAdopt,   // survivors restore their stash and adopt the dead shards;
              // ghosts hold the dead seats in the collectives
  };

  void decompose();
  void attempt(rt::Comm& comm);
  /// Recoverable roots of a failed attempt: injected crashes, transport
  /// failures and health-declared deaths. Empty when the failure is a bug.
  [[nodiscard]] std::vector<Rank> classify(
      const rt::World::RunReport& report) const;
  /// Charges one recovery and applies the first ladder rung whose budget is
  /// unspent and whose preconditions hold; rethrows when none does.
  void recover(const rt::World::RunReport& report,
               const std::vector<Rank>& roots);
  void adopt();
  void rollback();
  /// Serializes every survivor's state into stash_ and returns one of them
  /// (their cursors agree); RecoveryError when no rank survived.
  const RankEngine& stash_survivors();
  void note_recovery(const char* kind, const char* instant,
                     std::size_t event_step, std::size_t at_step);
  void resolve_pending_mttr();
  /// Schedule batches at or before `step` (the next batch a snapshot taken
  /// after that step resumes from).
  [[nodiscard]] std::size_t batches_through(std::size_t step) const;

  // ---- result assembly, after the last attempt joined ----
  void assemble_checkpoint();
  void assemble_values();
  void assemble_steps();
  void fold_metrics();
  void emit_done();

  Graph& graph_;
  const EngineConfig& cfg_;
  const Checkpoint& resume_;
  const bool resuming_;
  serve::ServeContext* const serve_;
  EventSchedule live_sched_;
  const EventSchedule* const schedule_;

  RunResult out_;
  Timer wall_;
  // Observability. One Tracer spans all supervised attempts (failed
  // attempts' spans stay in the rings, so the trace shows the whole
  // recovery story), and one metrics registry per rank accumulates across
  // attempts for honest failed-work accounting; both are merged after the
  // rank world has joined. The progress feed is driver-owned too, so its
  // estimator state and sinks survive attempts; rank 0 emits per-step
  // events, this thread emits recovery/done events while the world is
  // joined — never concurrently.
  std::unique_ptr<obs::Tracer> tracer_;
  obs::TraceTrack* drv_ = nullptr;
  std::vector<obs::MetricsRegistry> rank_metrics_;
  std::unique_ptr<obs::ProgressEmitter> progress_;

  Partition part_;
  EdgeList edges_;  // the initial graph, for kFresh
  std::vector<std::vector<std::byte>> slots_;  // checkpoint_at_step blobs
  // One World is reused across supervised attempts so ledgers accumulate:
  // work wasted by a failed attempt is honestly charged, and the
  // injector's one-shot crash flags keep a replay from re-dying at the
  // same point.
  std::optional<rt::FaultInjector> injector_;
  std::optional<PeriodicCheckpoints> periodic_;
  rt::World world_;
  std::vector<std::unique_ptr<RankEngine>> engines_;
  std::vector<std::size_t> rc_steps_;

  // Supervision state, rewritten between attempts and read-only while rank
  // threads run.
  Launch launch_;
  const Checkpoint* restart_;  // kResume: &resume_ or &rollback_ck_
  Checkpoint rollback_ck_;
  std::vector<bool> dead_;
  std::vector<std::vector<std::byte>> stash_;
  std::vector<std::size_t> rung_used_;
  std::size_t death_step_ = 0;  // furthest step any rank reached
  // kAdopt: the survivors' restart cursors, the rewritten owner map O_new
  // (dead ranks' vertices dealt onto the survivors), the driver's edge list
  // at the cursor, and the dead seats the round-robin deal must skip.
  std::size_t cursor_step_ = 0;
  std::size_t cursor_batch_ = 0;
  std::uint64_t cursor_vertices_added_ = 0;
  std::vector<Rank> adopt_owner_;
  EdgeList adopt_edges_;
  std::vector<Rank> adopt_skip_;
  // MTTR probe (docs/FAULTS.md §Recovery timing): the next attempt's ranks
  // fetch-max steady-now into recovery_mark_ at their first completed step
  // >= mttr_mark_step_; the pending RecoveryRecord is resolved against the
  // death-declaration time at the next failure or at run completion.
  std::atomic<std::int64_t> recovery_mark_{-1};
  bool mttr_pending_ = false;
  std::size_t mttr_mark_step_ = 0;
  std::size_t mttr_record_idx_ = 0;
  std::int64_t death_ns_ = 0;
};

Supervisor::Supervisor(const detail::DriverArgs& args)
    : graph_(*args.graph),
      cfg_(args.cfg),
      resume_(args.resume != nullptr ? *args.resume : kNoResume),
      resuming_(args.resuming),
      serve_(args.serve),
      live_sched_(serve_ != nullptr ? serve_->feed.journal_copy()
                                    : EventSchedule{}),
      schedule_(serve_ != nullptr ? &live_sched_ : args.schedule),
      rank_metrics_(static_cast<std::size_t>(cfg_.num_ranks)),
      slots_(static_cast<std::size_t>(cfg_.num_ranks)),
      world_(cfg_.num_ranks, cfg_.transport),
      engines_(static_cast<std::size_t>(cfg_.num_ranks)),
      rc_steps_(static_cast<std::size_t>(cfg_.num_ranks), 0),
      launch_(resuming_ ? Launch::kResume : Launch::kFresh),
      restart_(&resume_),
      dead_(static_cast<std::size_t>(cfg_.num_ranks), false),
      stash_(static_cast<std::size_t>(cfg_.num_ranks)),
      rung_used_(cfg_.recovery_policy.size(), 0) {
  if (cfg_.trace.enabled) {
    // Subtrack count covers the widest worker pool either phase can open.
    tracer_ = std::make_unique<obs::Tracer>(
        cfg_.num_ranks,
        std::max(resolve_worker_threads(cfg_.ia_threads, cfg_.num_ranks),
                 resolve_worker_threads(cfg_.rc_threads, cfg_.num_ranks)),
        cfg_.trace);
    drv_ = &tracer_->driver();
  }
  if (cfg_.progress.active()) {
    progress_ = std::make_unique<obs::ProgressEmitter>(cfg_.progress);
    if (!progress_->file_ok()) {
      // Telemetry is diagnostics: an unwritable path must not fail the run
      // (same policy as trace export).
      std::fprintf(stderr,
                   "[aacc] warning: could not open progress feed %s\n",
                   cfg_.progress.path.c_str());
    }
  }
  if (cfg_.faults.any()) injector_.emplace(cfg_.faults);
  if (cfg_.checkpoint_every > 0) periodic_.emplace(cfg_.num_ranks);
  if (injector_) world_.install_faults(&*injector_);
  if (cfg_.health.enabled) world_.install_health(cfg_.health);
  if (tracer_) world_.install_tracer(tracer_.get());
  // Flow stamping rides the tracer: without one there is nowhere to record
  // the flow:send/flow:recv instants, so the wire stays unstamped (and
  // bit-identical to the v2.1 format).
  world_.install_flow_stamping(tracer_ != nullptr && cfg_.trace.flow_stamping);
}

RunResult Supervisor::run() {
  if (!resuming_) decompose();
  for (;;) {
    const rt::World::RunReport report = [&] {
      const obs::ScopedSpan attempt_span(drv_, "attempt");
      return world_.run_contained([this](rt::Comm& comm) { attempt(comm); });
    }();
    if (report.ok()) break;
    // The journal grew during the failed attempt; refresh the live schedule
    // so cursors and the adoption graph see everything rank 0 consumed.
    if (serve_ != nullptr) live_sched_ = serve_->feed.journal_copy();
    recover(report, classify(report));
  }
  resolve_pending_mttr();
  // Final refresh: the result must reflect every batch the closed feed's
  // journal recorded (the rank world is joined; the journal is final).
  if (serve_ != nullptr) live_sched_ = serve_->feed.journal_copy();

  assemble_checkpoint();
  if (drv_ != nullptr) drv_->begin("result_assembly");
  assemble_values();
  assemble_steps();
  if (drv_ != nullptr) drv_->end("result_assembly");
  fold_metrics();
  out_.stats.wall_seconds = wall_.seconds();
  if (progress_) emit_done();
  if (tracer_) {
    out_.trace = tracer_->merge();
    if (!cfg_.trace.path.empty() &&
        !obs::write_chrome_trace_file(cfg_.trace.path, out_.trace)) {
      // Tracing is diagnostics: an unwritable path must not fail the run.
      std::fprintf(stderr, "[aacc] warning: could not write trace to %s\n",
                   cfg_.trace.path.c_str());
    }
  }
  return std::move(out_);
}

void Supervisor::decompose() {
  // DD phase (driver side, like mpiexec distributing partitions). A resumed
  // run skips it: the data distribution lives in the blobs.
  const obs::ScopedSpan dd_span(drv_, "dd");
  Timer dd_timer;
  Rng rng(cfg_.seed);
  part_ = partition_graph(graph_, cfg_.num_ranks, cfg_.dd_partitioner, rng);
  out_.stats.dd_seconds = dd_timer.seconds();
  out_.stats.cut_edges_initial = evaluate_partition(graph_, part_).cut_edges;
  edges_ = graph_.edges();
}

void Supervisor::attempt(rt::Comm& comm) {
  const auto me = static_cast<std::size_t>(comm.rank());
  RankEngine::Init init;
  init.me = comm.rank();
  init.world = cfg_.num_ranks;
  init.schedule = schedule_;
  init.cfg = cfg_;
  init.checkpoint_slot = &slots_[me];
  init.periodic = periodic_ ? &*periodic_ : nullptr;
  init.injector = injector_ ? &*injector_ : nullptr;
  init.tracer = tracer_.get();
  init.metrics = &rank_metrics_[me];
  init.serve = serve_;
  // The driver rank emits; everyone else only feeds the gather. Rank 0
  // keeps the emitter even as a ghost — the merged survivor data still
  // flows through its seat in the collectives.
  init.progress = me == 0 ? progress_.get() : nullptr;
  switch (launch_) {
    case Launch::kFresh:
      init.owner = part_.assignment;
      init.edges = &edges_;
      break;
    case Launch::kResume:
      init.restore_blob = &restart_->rank_blobs[me];
      init.start_step = restart_->step + 1;
      init.start_batch = restart_->next_batch;
      break;
    case Launch::kAdopt:
      // Shard adoption (docs/FAULTS.md §Shard adoption): survivors restore
      // their stash, then rebuild topology from O_new and the cursor graph
      // and re-derive the adopted rows. A ghost owns no rows but tracks
      // the owner map and consumes the event feed, so the survivors'
      // protocol is undisturbed. The round-robin deal skips the ghost seats
      // on every rank.
      init.start_step = cursor_step_;
      init.start_batch = cursor_batch_;
      init.owner = adopt_owner_;
      init.edges = &adopt_edges_;
      init.assign_skip = adopt_skip_;
      if (dead_[me]) {
        init.ghost = true;
        init.start_vertices_added = cursor_vertices_added_;
      } else {
        init.restore_blob = &stash_[me];
        init.adopt = true;
      }
      break;
  }
  if (mttr_pending_) {
    init.recovery_mark_step = mttr_mark_step_;
    init.recovery_mark = &recovery_mark_;
  }
  // Constructed into the shared slot immediately so a failing rank's
  // partial state is stashed for the supervisor (survivors' pending sends
  // and cursors seed the next attempt).
  engines_[me] = std::make_unique<RankEngine>(init, comm);
  RankEngine& engine = *engines_[me];
  if (launch_ == Launch::kFresh) {
    engine.run_ia();
    comm.barrier();  // IA/RC phase boundary
  }
  rc_steps_[me] = engine.run_rc();
}

std::vector<Rank> Supervisor::classify(
    const rt::World::RunReport& report) const {
  // Injected crashes and transport failures are recoverable roots;
  // PeerFailedError is collateral damage on survivors; anything else
  // (CheckpointError, logic errors) is a real bug and propagates.
  std::vector<Rank> roots;
  for (const Rank r : report.failed) {
    try {
      std::rethrow_exception(report.errors[static_cast<std::size_t>(r)]);
    } catch (const rt::InjectedCrash&) {
      roots.push_back(r);
    } catch (const rt::PeerFailedError&) {
      // survivor interrupted by a failed peer
    } catch (const rt::TransportError&) {
      roots.push_back(r);
    }
  }
  // Health supervision can declare a wedged rank dead while the rank
  // itself later returns without an exception of its own: union the
  // declarations in so the ladder treats it as a root too.
  for (const Rank r : world_.declared_dead()) {
    if (std::find(roots.begin(), roots.end(), r) == roots.end()) {
      roots.push_back(r);
    }
  }
  return roots;
}

void Supervisor::recover(const rt::World::RunReport& report,
                         const std::vector<Rank>& roots) {
  if (roots.empty()) rethrow_root(report);
  if (out_.stats.recoveries >= cfg_.max_recoveries) rethrow_root(report);
  ++out_.stats.recoveries;
  // MTTR bookkeeping: a probe from the previous recovery resolves now (the
  // run got this far, so the mark is final), then the death declaration
  // for this failure is timestamped.
  resolve_pending_mttr();
  death_ns_ = steady_ns();
  death_step_ = 0;
  for (const auto& engine : engines_) {
    if (engine != nullptr) {
      death_step_ = std::max(death_step_, engine->current_step());
    }
  }
  for (const Rank r : roots) dead_[static_cast<std::size_t>(r)] = true;

  // Walk the ladder: RecoveryError falls through to the next rung; an
  // exhausted ladder rethrows the last precondition failure (or the
  // failure's root cause when only budgets ran out).
  std::exception_ptr precondition_failure;
  for (std::size_t i = 0; i < cfg_.recovery_policy.size(); ++i) {
    const RecoveryRung& rung = cfg_.recovery_policy[i];
    if (rung.budget != 0 && rung_used_[i] >= rung.budget) continue;
    try {
      switch (rung.policy) {
        case RecoveryPolicy::kAdopt:
          adopt();
          break;
        case RecoveryPolicy::kRollback:
          rollback();
          break;
      }
      ++rung_used_[i];
      return;
    } catch (const RecoveryError&) {
      precondition_failure = std::current_exception();
    }
  }
  if (precondition_failure) std::rethrow_exception(precondition_failure);
  rethrow_root(report);
}

// Rung: shard adoption (docs/FAULTS.md §Shard adoption). The dead ranks'
// rows move to the survivors: structure from the driver's graph at the
// survivors' batch cursor, values re-derived from the survivors' live
// state. No snapshot, no global rollback, nothing lost.
void Supervisor::adopt() {
  if (cfg_.add_mode == EdgeAddMode::kEager) {
    throw RecoveryError(
        "adoption requires seeded edge adds (EdgeAddMode::kEager "
        "broadcasts rows the adopted vertices do not have yet)");
  }
  if (cfg_.assign != AssignStrategy::kRoundRobin) {
    throw RecoveryError(
        "adoption requires round-robin vertex assignment (the "
        "ghost-skipping deal is only defined there)");
  }
  if (cfg_.rebalance_threshold != 0.0) {
    throw RecoveryError(
        "adoption requires automatic rebalancing off (a repartition "
        "would migrate rows back onto ghost seats)");
  }
  const RankEngine& witness = stash_survivors();
  cursor_step_ = witness.current_step();
  cursor_batch_ = witness.current_batch();
  cursor_vertices_added_ = witness.vertices_added();
  // O_new: the witness map (its tombstones are current) with every newly
  // dead rank's vertices dealt round-robin onto the ascending survivors.
  // Ranks that died earlier own nothing any more.
  std::vector<Rank> survivors;
  adopt_skip_.clear();
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    (dead_[static_cast<std::size_t>(r)] ? adopt_skip_ : survivors).push_back(r);
  }
  adopt_owner_ = witness.local_graph().owner_map();
  std::size_t deal = 0;
  for (Rank& o : adopt_owner_) {
    if (o == kNoRank || !dead_[static_cast<std::size_t>(o)]) continue;
    o = survivors[deal % survivors.size()];
    ++deal;
  }
  // The authoritative graph at the cursor: the initial graph with every
  // batch the survivors consumed applied, exactly what their LocalGraphs
  // hold. Every rank builds its topology from its edge list.
  AACC_CHECK(cursor_batch_ <= schedule_->size());
  Graph at_cursor = graph_;
  for (std::size_t b = 0; b < cursor_batch_; ++b) {
    for (const Event& e : (*schedule_)[b].events) apply_event(at_cursor, e);
  }
  adopt_edges_ = at_cursor.edges();
  if (serve_ != nullptr) serve_->adopted.store(true, std::memory_order_release);
  launch_ = Launch::kAdopt;
  note_recovery("adopt", "recovery:adopt", cursor_step_, cursor_step_);
}

const RankEngine& Supervisor::stash_survivors() {
  // Every survivor stopped blocked in the same step's collective (crashes
  // fire at the step top or mid-exchange, both before ingest), so their
  // cursors agree; verify, then stash their state for restore.
  const RankEngine* witness = nullptr;
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    if (dead_[idx]) continue;
    AACC_CHECK_MSG(engines_[idx] != nullptr,
                   "survivor rank " << r << " has no stashed engine");
    const RankEngine& eng = *engines_[idx];
    if (witness == nullptr) {
      witness = &eng;
    } else {
      AACC_CHECK_MSG(eng.current_step() == witness->current_step() &&
                         eng.current_batch() == witness->current_batch(),
                     "survivors stopped at different cursors; a partial "
                     "restart would be incoherent (rank "
                         << r << " at step " << eng.current_step()
                         << " batch " << eng.current_batch()
                         << ", witness at step " << witness->current_step()
                         << " batch " << witness->current_batch() << ")");
    }
    rt::ByteWriter w;
    eng.serialize_state(w);
    stash_[idx] = w.take();
  }
  if (witness == nullptr) {
    throw RecoveryError("adoption needs a surviving rank: all " +
                        std::to_string(cfg_.num_ranks) + " ranks failed");
  }
  return *witness;
}

// Rung: whole-world rollback. Every rank replays from the newest snapshot
// all ranks hold, or from the start of the run without one; replay is
// deterministic, so the final state is bit-identical to a fault-free run.
void Supervisor::rollback() {
  std::optional<Checkpoint> ck;
  if (periodic_) ck = periodic_->latest_consistent();
  if (ck) {
    ck->next_batch = batches_through(ck->step);
    rollback_ck_ = std::move(*ck);
    restart_ = &rollback_ck_;
    launch_ = Launch::kResume;
  } else {
    restart_ = &resume_;
    launch_ = resuming_ ? Launch::kResume : Launch::kFresh;
  }
  // The whole-world replay resurrects every seat; snapshots published by
  // the next attempt drop the adopted provenance again.
  std::fill(dead_.begin(), dead_.end(), false);
  if (serve_ != nullptr) {
    serve_->adopted.store(false, std::memory_order_release);
  }
  note_recovery("rollback", "recovery:rollback",
                launch_ == Launch::kResume ? restart_->step : 0, death_step_);
}

void Supervisor::note_recovery(const char* kind, const char* instant,
                               std::size_t event_step, std::size_t at_step) {
  if (drv_ != nullptr) drv_->instant(instant, "attempt", out_.stats.recoveries);
  if (progress_) {
    // Emitted from this (driver) thread; the rank world has joined, so
    // sinks stay single-writer.
    progress_->recoveries = out_.stats.recoveries;
    obs::ProgressEvent ev;
    ev.phase = "recovery";
    ev.detail = kind;
    ev.step = event_step;
    ev.ranks = cfg_.num_ranks;
    ev.recoveries = out_.stats.recoveries;
    progress_->emit(ev);
  }
  out_.stats.recovery_log.push_back({kind, at_step, -1.0});
  mttr_pending_ = true;
  mttr_record_idx_ = out_.stats.recovery_log.size() - 1;
  mttr_mark_step_ = at_step;
  recovery_mark_.store(-1, std::memory_order_relaxed);
}

void Supervisor::resolve_pending_mttr() {
  if (!mttr_pending_) return;
  mttr_pending_ = false;
  const std::int64_t mark = recovery_mark_.load(std::memory_order_relaxed);
  if (mark >= death_ns_) {
    out_.stats.recovery_log[mttr_record_idx_].mttr_seconds =
        static_cast<double>(mark - death_ns_) / 1e9;
  }
}

std::size_t Supervisor::batches_through(std::size_t step) const {
  std::size_t n = 0;
  for (const EventBatch& b : *schedule_) {
    if (b.at_step <= step) ++n;
  }
  return n;
}

void Supervisor::assemble_checkpoint() {
  if (cfg_.checkpoint_at_step == kNoCheckpointStep || slots_[0].empty()) {
    return;
  }
  out_.checkpoint.rank_blobs = std::move(slots_);
  out_.checkpoint.step = cfg_.checkpoint_at_step;
  out_.checkpoint.num_ranks = cfg_.num_ranks;
  out_.checkpoint.next_batch = batches_through(cfg_.checkpoint_at_step);
}

void Supervisor::assemble_values() {
  // Driver-side ground truth.
  if (out_.checkpoint.valid()) {
    // The run stopped at the checkpoint: only the consumed batches are in
    // the distributed state.
    for (std::size_t b = 0; b < out_.checkpoint.next_batch; ++b) {
      for (const Event& e : (*schedule_)[b].events) apply_event(graph_, e);
    }
  } else {
    apply_schedule(graph_, *schedule_);
  }
  const VertexId n = graph_.num_vertices();

  out_.closeness.assign(n, 0.0);
  out_.harmonic.assign(n, 0.0);
  if (cfg_.gather_apsp) {
    out_.apsp.assign(n, std::vector<Dist>(n, kInfDist));
    out_.first_hop.assign(n, std::vector<VertexId>(n, kNoVertex));
  }
  for (const auto& engine : engines_) {
    const DvStore& store = engine->store();
    for (std::size_t r = 0; r < store.size(); ++r) {
      AACC_CHECK(store.columns(r) == n);
      const VertexId self = store.self(r);
      out_.closeness[self] = store.closeness(r);
      out_.harmonic[self] = store.harmonic(r);
      if (cfg_.gather_apsp) {
        // Full-matrix gather needs the dense rows; promotion here is fine
        // (the run is over and gather_apsp implies dense-scale memory).
        const DvRow& row = store.row(r);
        out_.apsp[self] = row.dists();
        out_.first_hop[self] = row.next_hops();
      }
    }
  }
  if (cfg_.gather_apsp) {
    for (VertexId v = 0; v < n; ++v) {
      if (graph_.is_alive(v)) out_.apsp[v][v] = 0;
    }
  }

  // Final distribution metrics (Fig. 7's "new cut-edges" comes from
  // cut_edges_final - cut_edges_initial).
  out_.final_owner = engines_[0]->local_graph().owner_map();
  Partition final_part;
  final_part.num_parts = cfg_.num_ranks;
  final_part.assignment = out_.final_owner;
  const auto m = evaluate_partition(graph_, final_part);
  out_.stats.cut_edges_final = m.cut_edges;
  out_.stats.imbalance_final = m.imbalance;

  for (const auto& engine : engines_) {
    out_.stats.invariant_violations += engine->invariant_violations();
  }
}

void Supervisor::assemble_steps() {
  // Per-step aggregates (rank logs hold cumulative counters). On a resumed
  // run the log covers only the steps executed here; `step` fields stay
  // absolute.
  RunStats& stats = out_.stats;
  stats.rc_steps = rc_steps_[0];
  const std::size_t steps = engines_[0]->step_log().size();
  stats.steps.resize(steps);
  for (const auto& engine : engines_) {
    const auto& log = engine->step_log();
    AACC_CHECK(log.size() == steps);
    StepLocal prev{};
    for (std::size_t s = 0; s < steps; ++s) {
      StepStats& agg = stats.steps[s];
      agg.step = log[s].step;
      agg.bytes += log[s].bytes_sent - prev.bytes_sent;
      agg.relaxations += log[s].relaxations - prev.relaxations;
      agg.poisons += log[s].poisons - prev.poisons;
      agg.repairs += log[s].repairs - prev.repairs;
      const double cpu = log[s].cpu_seconds - prev.cpu_seconds;
      agg.sum_cpu_seconds += cpu;
      agg.max_cpu_seconds = std::max(agg.max_cpu_seconds, cpu);
      agg.sum_drain_cpu_seconds +=
          log[s].drain_cpu_seconds - prev.drain_cpu_seconds;
      agg.sum_exchange_wait_seconds +=
          log[s].exchange_wait_seconds - prev.exchange_wait_seconds;
      // blocked_on is per-step too: keep the worst single blocked
      // interval across ranks and who it waited for.
      if (log[s].blocked_on_seconds > agg.max_blocked_seconds) {
        agg.max_blocked_seconds = log[s].blocked_on_seconds;
        agg.blocked_on_rank = log[s].blocked_on_rank;
      }
      prev = log[s];
    }
  }
  for (const StepStats& s : stats.steps) {
    stats.rc_drain_cpu_seconds += s.sum_drain_cpu_seconds;
    stats.rc_exchange_wait_seconds += s.sum_exchange_wait_seconds;
    if (s.blocked_on_rank >= 0) {
      stats.rc_blocked_on_seconds += s.max_blocked_seconds;
      stats.rc_blocked_on_by_rank[s.blocked_on_rank] += s.max_blocked_seconds;
    }
  }

  // Anytime quality snapshots.
  if (cfg_.record_step_quality) {
    out_.step_harmonic.assign(
        steps, std::vector<double>(graph_.num_vertices(), 0.0));
    for (const auto& engine : engines_) {
      const auto& snaps = engine->step_quality();
      for (std::size_t s = 0; s < snaps.size() && s < steps; ++s) {
        for (const auto& [v, c] : snaps[s]) out_.step_harmonic[s][v] = c;
      }
    }
  }
}

void Supervisor::fold_metrics() {
  // World-level accounting, folded through the metrics registry. The
  // runtime ledgers land in each rank's registry first and RunStats reads
  // the merged registry back, so the two views cannot disagree
  // (docs/OBSERVABILITY.md: the registry is the single source of truth).
  // Gauges fold per rank in rank order, replicating the double-summation
  // order of the World::total_* helpers bit for bit.
  const auto& ledgers = world_.ledgers();
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    const rt::RankLedger& ledger = ledgers[static_cast<std::size_t>(r)];
    obs::MetricsRegistry& reg = rank_metrics_[static_cast<std::size_t>(r)];
    reg.counter("transport/bytes_sent").add(ledger.bytes_sent);
    reg.counter("transport/bytes_received").add(ledger.bytes_received);
    reg.counter("transport/messages_sent").add(ledger.messages_sent);
    reg.counter("transport/messages_received").add(ledger.messages_received);
    reg.counter("transport/frame_overhead_bytes")
        .add(ledger.frame_overhead_bytes);
    reg.counter("transport/retransmits").add(ledger.retransmits);
    reg.counter("health/stragglers").add(ledger.health_stragglers);
    reg.counter("health/suspects").add(ledger.health_suspects);
    reg.counter("health/deaths_declared").add(ledger.health_dead_declared);
    for (const auto& [phase, secs] : ledger.cpu_seconds) {
      reg.gauge("cpu/phase/" + phase).add(secs);
    }
    reg.gauge("cpu/total").add(ledger.total_cpu_seconds());
  }
  obs::MetricsRegistry merged;
  for (const obs::MetricsRegistry& reg : rank_metrics_) merged.merge(reg);
  if (serve_ != nullptr) {
    // Query-side counters live in the shared serve context (bumped by
    // QueryView readers); fold them in next to the rank-side serve/
    // publish metrics so the merged registry tells the whole story.
    merged.counter("serve/queries")
        .add(serve_->queries.load(std::memory_order_relaxed));
    merged.counter("serve/stale_responses")
        .add(serve_->stale_responses.load(std::memory_order_relaxed));
    // Query latency SLOs: the lock-free per-kind histograms recorded by
    // QueryView readers, snapshotted into the merged registry so p50/p95/
    // p99 ride the normal stats/JSON plumbing.
    merged.histogram("serve/query_ns/point")
        .merge(serve_->query_ns_point.snapshot());
    merged.histogram("serve/query_ns/top_k")
        .merge(serve_->query_ns_top_k.snapshot());
    merged.histogram("serve/query_ns/rank_of")
        .merge(serve_->query_ns_rank_of.snapshot());
  }
  merged.gauge("cpu/max_rank").set(world_.max_rank_cpu_seconds());
  merged.gauge("time/dd_seconds").set(out_.stats.dd_seconds);
  out_.traffic = world_.take_message_log();

  RunStats& stats = out_.stats;
  stats.total_cpu_seconds = merged.gauge_value("cpu/total");
  stats.max_rank_cpu_seconds = merged.gauge_value("cpu/max_rank");
  stats.total_bytes = merged.counter_value("transport/bytes_sent");
  stats.total_messages = merged.counter_value("transport/messages_sent");
  stats.frame_overhead_bytes =
      merged.counter_value("transport/frame_overhead_bytes");
  stats.retransmits = merged.counter_value("transport/retransmits");
  stats.dv_resident_bytes =
      static_cast<std::uint64_t>(merged.gauge_value("dv/resident_bytes"));
  stats.dv_cold_bytes =
      static_cast<std::uint64_t>(merged.gauge_value("dv/cold_bytes"));
  stats.dv_promotions = merged.counter_value("dv/promotions");
  stats.dv_demotions = merged.counter_value("dv/demotions");
  stats.dv_decode_seconds = merged.gauge_value("dv/decode_seconds");
  static constexpr const char* kPhasePrefix = "cpu/phase/";
  for (const auto& [name, gauge] : merged.gauges()) {
    if (name.rfind(kPhasePrefix, 0) == 0) {
      stats.cpu_by_phase[name.substr(10)] = gauge.value;
    }
  }
  // Percentile summaries for every histogram in the merged registry
  // (docs/OBSERVABILITY.md §Metrics): RunStats::to_json emits them under
  // "histograms".
  for (const auto& [name, h] : merged.histograms()) {
    RunStats::HistogramSummary hs;
    hs.count = h.count;
    hs.sum = h.sum;
    hs.p50 = obs::histogram_quantile(h, 0.50);
    hs.p95 = obs::histogram_quantile(h, 0.95);
    hs.p99 = obs::histogram_quantile(h, 0.99);
    stats.histogram_summary.emplace(name, hs);
  }
  out_.metrics = std::move(merged);
}

void Supervisor::emit_done() {
  // Terminal event: totals from the final RunStats plus the exact final
  // top-k, so a consumer that only tails the feed ends with the same
  // ranking RunResult::harmonic would give it.
  const RunStats& stats = out_.stats;
  obs::ProgressEvent ev;
  ev.phase = "done";
  ev.step = stats.rc_steps;
  ev.ranks = cfg_.num_ranks;
  ev.settled = 0;  // not re-gathered after teardown
  ev.bytes = stats.total_bytes;
  ev.retransmits = stats.retransmits;
  ev.recoveries = stats.recoveries;
  ev.dv_resident_bytes = stats.dv_resident_bytes;
  ev.dv_cold_bytes = stats.dv_cold_bytes;
  ev.dv_promotions = stats.dv_promotions;
  ev.dv_demotions = stats.dv_demotions;
  if (serve_ != nullptr) {
    ev.has_serve = true;
    ev.serve_queries = serve_->queries.load(std::memory_order_relaxed);
    ev.snapshot_age_steps = 0;  // terminal snapshots are exact
  }
  for (const StepStats& s : stats.steps) {
    ev.relaxations += s.relaxations;
    ev.poisons += s.poisons;
    ev.repairs += s.repairs;
  }
  const std::size_t k = cfg_.progress.top_k;
  std::vector<std::pair<VertexId, double>> final_top;
  for (VertexId v : top_k(out_.harmonic, k)) {
    final_top.emplace_back(v, out_.harmonic[v]);
  }
  if (!progress_->prev_top.empty()) {
    ev.has_estimators = true;
    ev.topk_overlap = top_k_overlap(progress_->prev_top, final_top, k);
    ev.kendall_tau = kendall_tau(progress_->prev_top, final_top);
  }
  ev.top.reserve(final_top.size());
  for (const auto& [v, score] : final_top) {
    (void)score;
    ev.top.push_back(v);
  }
  progress_->prev_top = std::move(final_top);
  progress_->emit(ev);
}

}  // namespace

namespace detail {

RunResult run_driver(const DriverArgs& args) {
  Supervisor supervisor(args);
  return supervisor.run();
}

}  // namespace detail

std::vector<VertexId> reconstruct_path(const RunResult& result, VertexId u,
                                       VertexId v) {
  AACC_CHECK_MSG(!result.first_hop.empty(),
                 "reconstruct_path requires cfg.gather_apsp");
  AACC_CHECK(u < result.first_hop.size() && v < result.first_hop.size());
  std::vector<VertexId> path{u};
  if (u == v) return path;
  if (result.apsp[u][v] == kInfDist) return {};
  VertexId cur = u;
  // Next-hop chains strictly decrease in distance, so this terminates.
  while (cur != v) {
    const VertexId next = result.first_hop[cur][v];
    AACC_CHECK_MSG(next != kNoVertex, "broken next-hop chain at " << cur);
    path.push_back(next);
    cur = next;
  }
  return path;
}

RunResult run_baseline_restart(Graph g, const EventSchedule& schedule,
                               const EngineConfig& cfg) {
  // The analysis in progress when changes arrive, plus one full rerun per
  // change batch. Only costs carry over; no partial results are reused.
  RunResult result;
  {
    AnytimeEngine initial(g, cfg);
    result = initial.run();
  }
  RunStats total = result.stats;
  std::vector<rt::MsgRecord> traffic = std::move(result.traffic);
  for (const EventBatch& batch : schedule) {
    for (const Event& e : batch.events) apply_event(g, e);
    AnytimeEngine rerun(g, cfg);
    result = rerun.run();
    total.accumulate(result.stats);
    // Number the rerun's collectives past every op id so far, so no cost
    // model groups messages of two runs into one collective.
    std::uint32_t op_base = 0;
    for (const rt::MsgRecord& m : traffic) op_base = std::max(op_base, m.op + 1);
    for (rt::MsgRecord& m : result.traffic) {
      m.op += op_base;
      traffic.push_back(m);
    }
  }
  result.stats = total;
  result.traffic = std::move(traffic);
  return result;
}

}  // namespace aacc
