#include "src/detector/system.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "src/common/check.h"
#include "src/net/loopback.h"
#include "src/report/emitter.h"

namespace detector {

namespace {

// Send-only in-memory Transport a probe task's ReportEmitter seals frames into: frames append
// to one contiguous buffer, and ForwardTo later replays them, in send order, on the real
// transport. Lets encoding run on the probe workers while sending stays serial.
class FrameBuffer final : public Transport {
 public:
  bool Send(std::span<const uint8_t> frame) override {
    bytes_.insert(bytes_.end(), frame.begin(), frame.end());
    ends_.push_back(bytes_.size());
    return true;
  }
  // Never delivers: the buffered frames leave through ForwardTo.
  bool Receive(std::vector<uint8_t>& /*out*/) override { return false; }
  TransportStats stats() const override {
    TransportStats stats;
    stats.frames_sent = ends_.size();
    stats.bytes_sent = bytes_.size();
    return stats;
  }

  // Sends every buffered frame on `transport`, in order, and releases the buffer.
  void ForwardTo(Transport& transport) {
    size_t begin = 0;
    for (const size_t end : ends_) {
      transport.Send(std::span<const uint8_t>(bytes_).subspan(begin, end - begin));
      begin = end;
    }
    bytes_ = {};
    ends_ = {};
  }

 private:
  std::vector<uint8_t> bytes_;
  std::vector<size_t> ends_;  // end offset of each frame in bytes_
};

// Clamps every option to its valid range — the one place this happens: both constructors and
// Reconfigure take their options through it, so use sites read options_ as they stand.
DetectorSystemOptions Clamped(DetectorSystemOptions options) {
  options.probe_subshards = std::max(0, options.probe_subshards);
  options.pmc_repair_threads = std::max(0, options.pmc_repair_threads);
  options.segments_per_window = std::max(1, options.segments_per_window);
  options.diagnose_every_segments = std::max(1, options.diagnose_every_segments);
  options.sliding_window_segments = std::max(1, options.sliding_window_segments);
  options.report_collectors = std::max<size_t>(1, options.report_collectors);
  options.report_ingest_shards = std::max<size_t>(1, options.report_ingest_shards);
  options.report_pipeline_depth = std::max(1, options.report_pipeline_depth);
  return options;
}

}  // namespace

DetectorSystem::DetectorSystem(const PathProvider& provider, DetectorSystemOptions options)
    : topo_(provider.topology()),
      options_(Clamped(std::move(options))),
      incremental_(std::make_unique<IncrementalPmc>(
          topo_, provider.Enumerate(options_.enum_mode), options_.pmc)),
      matrix_(incremental_->BuildMatrix()),
      pmc_stats_(incremental_->initial_stats()),
      overlay_(topo_),
      watchdog_(topo_),
      controller_(topo_, options_.controller),
      diagnoser_(options_.pll),
      latency_model_(options_.latency),
      anomaly_engine_(options_.anomaly_options) {
  ApplyOptions();
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);
  for (const Pinglist& list : pinglists_) {
    version_floor_[list.pinger] = list.version;
  }
}

DetectorSystem::DetectorSystem(const Topology& topo, ProbeMatrix matrix,
                               DetectorSystemOptions options)
    : topo_(topo),
      options_(Clamped(std::move(options))),
      matrix_(std::move(matrix)),
      overlay_(topo_),
      watchdog_(topo_),
      controller_(topo_, options_.controller),
      diagnoser_(options_.pll),
      latency_model_(options_.latency),
      anomaly_engine_(options_.anomaly_options) {
  ApplyOptions();
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);
  for (const Pinglist& list : pinglists_) {
    version_floor_[list.pinger] = list.version;
  }
}

void DetectorSystem::Reconfigure(DetectorSystemOptions options) {
  options = Clamped(std::move(options));
  const DetectorSystemOptions& old = options_;
  CHECK(options.controller == old.controller && options.pmc == old.pmc &&
        options.enum_mode == old.enum_mode && options.pll == old.pll &&
        options.latency == old.latency && options.anomaly_options == old.anomaly_options)
      << "Reconfigure cannot change constructor-only options (controller, pmc, enum_mode, pll, "
         "latency, anomaly_options)";
  if (options.probe_threads != old.probe_threads) {
    pool_.reset();
  }
  // The collectors' own options (CollectorOptions) are fixed at their construction.
  auto collector_inputs = [](const DetectorSystemOptions& o) {
    return std::tie(o.report_collectors, o.report_ingest_shards, o.report_key,
                    o.report_liveness_horizon, o.rtt_bins);
  };
  if (collector_inputs(options) != collector_inputs(old)) {
    collector_group_.reset();
  }
  auto log_inputs = [](const DetectorSystemOptions& o) {
    return std::tie(o.history_dir, o.history_segment_records, o.history_max_segments,
                    o.report_key);
  };
  if (log_inputs(options) != log_inputs(old)) {
    history_log_.reset();
  }
  options_ = std::move(options);
  ApplyOptions();
}

void DetectorSystem::SetReportTransport(std::unique_ptr<Transport> transport) {
  report_transport_factory_ = nullptr;
  report_transports_.clear();
  report_transports_.push_back(std::move(transport));
}

void DetectorSystem::SetReportTransportFactory(
    std::function<std::unique_ptr<Transport>(size_t)> factory) {
  report_transport_factory_ = std::move(factory);
  report_transports_.clear();
}

PartitionMap DetectorSystem::BuildReportPartition(size_t num_partitions) const {
  std::vector<NodeId> pingers;
  pingers.reserve(pinglists_.size());
  for (const Pinglist& list : pinglists_) {
    pingers.push_back(list.pinger);
  }
  return PartitionMap::Build(std::move(pingers), num_partitions);
}

void DetectorSystem::PrepareReportFabric() {
  const size_t n = options_.report_collectors;
  if (collector_group_ == nullptr) {
    CollectorGroupOptions group_options;
    group_options.num_collectors = n;
    group_options.collector.ingest_shards = options_.report_ingest_shards;
    group_options.collector.key = options_.report_key;
    group_options.collector.liveness_horizon = options_.report_liveness_horizon;
    group_options.collector.rtt_bins = options_.rtt_bins;
    collector_group_ = std::make_unique<CollectorGroup>(diagnoser_.store(),
                                                        BuildReportPartition(n), group_options);
  } else {
    // Pinger churn across windows repartitions deterministically (the map is a pure function
    // of the pinger set).
    collector_group_->Repartition(BuildReportPartition(n));
  }
  if (report_transports_.size() > n) {
    report_transports_.resize(n);  // shrinking the fabric drops the surplus backends
  }
  while (report_transports_.size() < n) {
    const size_t i = report_transports_.size();
    report_transports_.push_back(report_transport_factory_ != nullptr
                                     ? report_transport_factory_(i)
                                     : std::make_unique<LoopbackTransport>());
  }
}

void DetectorSystem::ApplyOptions() {
  if (incremental_ != nullptr) {
    incremental_->set_repair_threads(options_.pmc_repair_threads);
  }
  diagnoser_.set_sliding_segments(options_.streaming_view == StreamingViewMode::kSliding
                                      ? options_.sliding_window_segments
                                      : 0);
  diagnoser_.set_decay_factor(
      options_.streaming_view == StreamingViewMode::kDecay ? options_.decay_factor : 0.0);
  diagnoser_.set_decay_quantized(options_.streaming_view == StreamingViewMode::kDecay &&
                                 options_.decay_quantized);
}

void DetectorSystem::EnforceVersionFloors(std::vector<PinglistDiff>& diffs) {
  if (diffs.empty()) {
    return;
  }
  std::map<NodeId, Pinglist*> by_pinger;
  for (Pinglist& list : pinglists_) {
    by_pinger.emplace(list.pinger, &list);
  }
  for (PinglistDiff& diff : diffs) {
    Pinglist* list = by_pinger.at(diff.pinger);
    const auto it = version_floor_.find(diff.pinger);
    if (it != version_floor_.end() && list->version <= it->second) {
      list->version = it->second + 1;
    }
    diff.version = list->version;
    version_floor_[diff.pinger] = list->version;
  }
}

void DetectorSystem::RecomputeCycle() {
  if (incremental_ != nullptr) {
    pmc_stats_ = incremental_->FullResolve();
    matrix_ = incremental_->BuildMatrix();
    // The rebuilt matrix rewires slots; the diagnoser's cached PLL partition is stale, and so
    // is every per-slot anomaly baseline (slot identities do not survive a rebuild).
    diagnoser_.InvalidateLocalizeCache();
    anomaly_engine_.Reset();
  }
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);

  // Fixed-matrix mode keeps dead-link paths in the matrix; withdraw their entries so the
  // rebuild respects the overlay like the incremental path does (whose FullResolve already
  // excludes dead links from the matrix itself).
  if (incremental_ == nullptr && overlay_.NumDeadLinks() > 0) {
    std::vector<PathId> dead_paths;
    for (int32_t d = 0; d < matrix_.NumLinks(); ++d) {
      if (overlay_.IsLinkLive(matrix_.links().Link(d))) {
        continue;
      }
      const auto through = matrix_.PathsThroughDense(d);
      dead_paths.insert(dead_paths.end(), through.begin(), through.end());
    }
    std::sort(dead_paths.begin(), dead_paths.end());
    dead_paths.erase(std::unique(dead_paths.begin(), dead_paths.end()), dead_paths.end());
    controller_.UpdatePinglists(pinglists_, matrix_, watchdog_, dead_paths, {}, {}, {},
                                &path_index_);
  }

  // A full rebuild is a new pinglist generation for every pinger: versions must move strictly
  // forward past each pinger's high-water mark — which outlives the lists themselves, so a
  // pinger whose list vanished for a cycle does not restart at 1 when it returns.
  for (Pinglist& list : pinglists_) {
    int& floor = version_floor_[list.pinger];
    list.version = floor + 1;
    floor = list.version;
  }
}

DetectorSystem::ChurnApplyResult DetectorSystem::ApplyTopologyDelta(const TopologyDelta& delta) {
  ChurnApplyResult out;

  // Server churn routes to the watchdog (pinger eligibility); the affected paths are
  // re-dispatched below so replicas move off a downed pinger immediately instead of waiting
  // for the next recompute cycle, and intra-rack entries targeting the server are withdrawn
  // from (on recovery: restored to) the standing pinglists. Deliberately NOT gated on a
  // health transition: the delta may be confirming a server the watchdog already flagged
  // out-of-band (health telemetry), whose entries still stand and must be moved now. Both
  // directions are idempotent — removal finds nothing the second time, and the re-add
  // dedups against standing entries — so a repeated delta is a no-op.
  std::vector<NodeId> downed_servers;
  std::vector<NodeId> recovered_servers;
  for (const NodeChurn& ev : delta.nodes) {
    if (!topo_.IsServer(ev.node)) {
      continue;
    }
    if (ev.action == ChurnAction::kDown || ev.action == ChurnAction::kDrain) {
      watchdog_.MarkDown(ev.node);
      downed_servers.push_back(ev.node);
    } else {
      watchdog_.MarkUp(ev.node);
      recovered_servers.push_back(ev.node);
    }
  }

  const LinkStateOverlay::Effect effect = overlay_.Apply(delta);
  out.links_gone_dead = effect.now_dead.size();
  out.links_back_live = effect.now_live.size();
  out.overlay_version = effect.version;

  std::vector<PathId> removed;
  std::vector<PathId> added;
  if (incremental_ != nullptr) {
    IncrementalPmc::DeltaOutcome outcome = incremental_->ApplyDelta(effect);
    out.repair = outcome.stats;
    out.slots_vacated = outcome.removed_slots;
    removed = std::move(outcome.removed_slots);
    added = std::move(outcome.added_slots);
    if (!removed.empty() || !added.empty()) {
      matrix_ = incremental_->BuildMatrix();
      // Slot reuse keeps the matrix dimensions while rewiring paths, so the diagnoser's
      // cached PLL partition cannot detect the change itself — drop it explicitly, along with
      // the anomaly baselines keyed to the old slot identities.
      diagnoser_.InvalidateLocalizeCache();
      anomaly_engine_.Reset();
    }
  } else {
    // Fixed-matrix mode: no candidate set to repair from. Entries on dead links are withdrawn
    // (their coverage hole persists until the link returns) and entries whose every link is
    // live again are restored.
    for (const LinkId link : effect.now_dead) {
      if (matrix_.links().Dense(link) < 0) {
        continue;
      }
      for (const PathId pid : matrix_.PathsThrough(link)) {
        removed.push_back(pid);
      }
    }
    for (const LinkId link : effect.now_live) {
      if (matrix_.links().Dense(link) < 0) {
        continue;
      }
      for (const PathId pid : matrix_.PathsThrough(link)) {
        const auto links = matrix_.paths().Links(pid);
        if (std::all_of(links.begin(), links.end(),
                        [&](LinkId l) { return overlay_.IsLinkLive(l); })) {
          added.push_back(pid);
        }
      }
    }
    // Entries are withdrawn for every path over a dead monitored link, so coverage is whole
    // exactly when none remain — including holes left by earlier deltas. Dead links outside
    // the matrix domain (e.g. a downed server's rack link) do not open coverage holes.
    out.repair.alpha_satisfied = true;
    for (int32_t d = 0; d < matrix_.NumLinks(); ++d) {
      if (!overlay_.IsLinkLive(matrix_.links().Link(d))) {
        out.repair.alpha_satisfied = false;
        break;
      }
    }
  }

  // Re-dispatch the paths a downed server was pinging or answering for.
  if (!downed_servers.empty()) {
    const std::unordered_set<NodeId> down(downed_servers.begin(), downed_servers.end());
    const std::unordered_set<PathId> already_removed(removed.begin(), removed.end());
    for (const Pinglist& list : pinglists_) {
      const bool pinger_down = down.count(list.pinger) > 0;
      for (const PinglistEntry& entry : list.entries) {
        if (entry.path_id < 0) {
          continue;  // intra-rack entries are keyed by target and removed by UpdatePinglists
        }
        if (pinger_down || down.count(entry.target_server) > 0) {
          removed.push_back(entry.path_id);
          if (already_removed.count(entry.path_id) == 0 &&
              matrix_.paths().PathLength(entry.path_id) > 0) {
            added.push_back(entry.path_id);
          }
        }
      }
    }
  }

  auto sort_unique = [](std::vector<PathId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  sort_unique(removed);
  sort_unique(added);
  out.paths_removed = removed.size();
  out.paths_added = added.size();
  if (incremental_ == nullptr) {
    // Fixed-matrix mode has no solver stats; mirror the deduplicated entry-level counts
    // (a path through two transitioned links counts once).
    out.repair.dropped_paths = removed.size();
    out.repair.added_paths = added.size();
  }

  PinglistUpdate update =
      controller_.UpdatePinglists(pinglists_, matrix_, watchdog_, removed, added,
                                  downed_servers, recovered_servers, &path_index_);
  out.pinglists_touched = update.lists_touched;
  out.entries_removed = update.entries_removed;
  out.entries_added = update.entries_added;
  out.diffs = std::move(update.diffs);
  EnforceVersionFloors(out.diffs);
  return out;
}

void DetectorSystem::RunSpan(const FailureScenario& scenario, double t0, double t1, Rng& rng,
                             WindowResult& result) {
  if (scenario.episodes.empty()) {
    RunSegment(scenario, t1 - t0, rng, result);
    return;
  }
  // Cut [t0, t1) at the episode boundaries inside it; each piece probes under the failure set
  // active at its start (fixed across the piece by construction).
  std::vector<double> cuts;
  for (const FailureEpisode& episode : scenario.episodes) {
    for (const double t : {episode.start_seconds, episode.end_seconds}) {
      if (t > t0 + 1e-9 && t < t1 - 1e-9) {
        cuts.push_back(t);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(t1);
  double at = t0;
  for (const double cut : cuts) {
    if (cut - at <= 1e-9) {
      continue;
    }
    FailureScenario active = scenario;
    active.episodes.clear();
    for (const FailureEpisode& episode : scenario.episodes) {
      if (episode.start_seconds <= at + 1e-9 && at + 1e-9 < episode.end_seconds) {
        active.failures.push_back(episode.failure);
      }
    }
    RunSegment(active, cut - at, rng, result);
    at = cut;
  }
}

FailureScenario DetectorSystem::OverlaidScenario(const FailureScenario& scenario) const {
  if (overlay_.NumDeadLinks() == 0) {
    return scenario;
  }
  FailureScenario overlaid = scenario;  // scenario failures win ProbeEngine's first-wins dedup
  for (const LinkId link : overlay_.FailedLinks()) {
    LinkFailure failure;
    failure.link = link;
    failure.type = FailureType::kFullLoss;
    failure.loss_rate = 1.0;
    overlaid.failures.push_back(failure);
  }
  return overlaid;
}

void DetectorSystem::RunSegment(const FailureScenario& scenario, double seconds, Rng& rng,
                                WindowResult& result) {
  ProbeEngine engine(topo_, OverlaidScenario(scenario), options_.probe);
  if (options_.anomaly) {
    // RTT observation rides the same per-shard RNG streams; sampling draws happen after all
    // loss draws, so the loss counters match an anomaly-off run draw for draw.
    engine.AttachRttObservation(&latency_model_, {}, options_.rtt_samples_per_path,
                                options_.rtt_bins);
  }

  // Serial phase: the probe tasks — per non-empty pinglist the whole list, or
  // (probe_subshards > 0) up to probe_subshards entry ranges, so a giant list spreads across
  // workers. Every entry draws from its own stream keyed by (window seed, pinger, entry), and
  // the caller's rng advances once (the window seed) however many tasks or threads run, so
  // the counters are bit-identical at any thread count and any sub-shard count.
  // Store shards open here, serially in pinglist order in both modes, so shard — and
  // intra-rack record — order never depends on scheduling.
  ObservationStore& store = diagnoser_.store();
  store.EnsureSlots(matrix_.NumPaths());
  const uint64_t window_seed = rng();
  const size_t splits = static_cast<size_t>(options_.probe_subshards);
  const bool report = options_.report_plane;
  struct ListRun {
    const Pinglist* list;
    ObservationStore::Shard* shard;
    size_t first_task;
    size_t end_task;
    FrameBuffer frames;     // report mode: the list's sealed frames, in emission order
    uint64_t next_seq = 0;  // report mode: the pinger's frame seq after this segment
  };
  struct Task {
    ListRun* run;
    size_t begin;
    size_t end;
    std::vector<PathReport> reports;  // sub-sharded ranges only
    PingerTraffic traffic;
  };
  std::deque<ListRun> runs;  // stable addresses: tasks point into it
  std::vector<Task> tasks;
  for (const Pinglist& list : pinglists_) {
    const size_t n = list.entries.size();
    const size_t pieces = std::min(splits == 0 ? 1 : splits, n);
    if (pieces == 0) {
      continue;
    }
    ListRun& run = runs.emplace_back(
        ListRun{&list, &store.OpenShard(list.pinger), tasks.size(), tasks.size() + pieces, {}, 0});
    for (size_t p = 0; p < pieces; ++p) {
      tasks.push_back(Task{&run, n * p / pieces, n * (p + 1) / pieces, {}, {}});
    }
  }

  // Hands `feed` the list's ReportSink: its store shard in direct mode, else an emitter that
  // seals frames into the list's own buffer, continuing the pinger's per-window seq. Safe on
  // any thread: each list has one feeder at a time, and the shared state it reads (epochs,
  // report_seq_) mutates only at serial points.
  auto with_sink = [&](ListRun& run, auto&& feed) {
    StoreShardSink direct(*run.shard);
    if (!report) {
      feed(static_cast<ReportSink&>(direct));
      return;
    }
    const auto seq = report_seq_.find(run.list->pinger);
    ReportEmitter emitter(run.list->pinger, report_window_id_,
                          seq == report_seq_.end() ? 0 : seq->second, store.slot_epochs(),
                          run.frames, options_.report_batch_entries, options_.report_key);
    feed(static_cast<ReportSink&>(emitter));
    emitter.Flush();
    run.next_seq = emitter.next_seq();
  };
  // A task reads only shared state that mutates at serial points (pinglists, engine, the
  // watchdog) and writes only its own list: a whole-list task streams straight into the
  // list's sink, a sub-sharded range fills its report buffer for the fold below.
  auto run_task = [&](Task& task) {
    const Pinger pinger(*task.run->list, options_.confirm_packets);
    if (splits > 0) {
      task.reports.reserve(task.end - task.begin);
      task.traffic = pinger.RunEntryRange(engine, seconds, window_seed, task.begin, task.end,
                                          task.reports, &watchdog_);
      return;
    }
    Rng shard_rng =
        ProbeEngine::ShardRng(window_seed, static_cast<uint64_t>(task.run->list->pinger));
    with_sink(*task.run, [&](ReportSink& sink) {
      task.traffic = pinger.RunWindowTo(engine, seconds, shard_rng, sink, &watchdog_);
    });
  };

  ThreadPool* pool = tasks.size() > 1 ? ProbePool() : nullptr;
  if (pool != nullptr) {
    std::atomic<size_t> next{0};
    const size_t workers = std::min(pool->num_threads(), tasks.size());
    for (size_t w = 0; w < workers; ++w) {
      pool->Submit([&] {
        for (size_t i = next.fetch_add(1); i < tasks.size(); i = next.fetch_add(1)) {
          run_task(tasks[i]);
        }
      });
    }
    pool->WaitAll();
  }
  // Serial fold in pinglist order (at one thread each list probes here first, so no buffer
  // outlives its list): sub-sharded ranges replay through the list's sink in entry order,
  // then the list's frames go out on its collector partition's transport. Sending here, not
  // from the tasks, keeps every transport's send sequence independent of scheduling — a
  // lossy, reordering or impaired wire sees the same frames in the same order at any thread
  // count.
  for (ListRun& run : runs) {
    for (size_t t = run.first_task; t < run.end_task; ++t) {
      if (pool == nullptr) {
        run_task(tasks[t]);
      }
      result.probes_sent += tasks[t].traffic.probes_sent;
      result.bytes_sent += tasks[t].traffic.bytes_sent;
    }
    if (splits > 0) {
      with_sink(run, [&](ReportSink& sink) {
        for (size_t t = run.first_task; t < run.end_task; ++t) {
          std::vector<PathReport> reports = std::move(tasks[t].reports);  // freed once folded
          for (PathReport& r : reports) {
            sink.OnEntry(r.path_id, r.target, r.sent, r.lost,
                         r.rtt.total() > 0 ? &r.rtt : nullptr);
          }
        }
      });
    }
    if (report) {
      const NodeId pinger = run.list->pinger;
      run.frames.ForwardTo(
          *report_transports_[static_cast<size_t>(collector_group_->RouteOf(pinger))]);
      report_seq_[pinger] = run.next_seq;
    }
  }
  if (report) {
    PumpReportBoundary(/*window_end=*/false);
  }
}

ThreadPool* DetectorSystem::ProbePool() {
  // Sized by the configured thread count alone — task-count fluctuations across segments
  // (churn emptying a pinglist) must not tear workers down and restart them.
  const size_t configured = options_.probe_threads != 0
                                ? options_.probe_threads
                                : std::max<size_t>(1, std::thread::hardware_concurrency());
  if (configured <= 1) {
    return nullptr;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(configured);
  }
  return pool_.get();
}

void DetectorSystem::PumpReportBoundary(bool window_end) {
  const bool barrier = !options_.report_pipeline || window_end;
  const auto depth = static_cast<uint64_t>(options_.report_pipeline_depth);
  // One collector's boundary step. Collectors own disjoint pingers, so their folds write
  // disjoint store shards (first-seen shard opens serialize on the group's mutex) and the
  // steps run concurrently on the probe pool.
  auto pump = [&](size_t c) {
    Collector& col = collector_group_->collector(c);
    if (barrier) {
      // Ingest barrier: everything sent and not dropped folds before the segment closes,
      // which is what makes the lossless loopback bit-identical to direct mode — no report
      // straddles a diagnosis boundary or a churn-driven slot invalidation. Pipelined mode
      // defers folds, but never past the window.
      report_transports_[c]->Flush();
      col.PumpFrom(*report_transports_[c]);
      return;
    }
    // Pipelined: fold what the budget allows and let the rest straddle the boundary — epoch
    // stamps make the late folds land exactly where on-time folds would have. The staleness
    // enforcer then folds whatever has aged report_pipeline_depth boundaries regardless of
    // budget, so max_fold_staleness <= depth is a guarantee, not a hope.
    col.PumpFrom(*report_transports_[c], options_.report_pump_budget);
    if (col.boundary() >= depth) {
      col.DrainStale(col.boundary() - depth + 1);
    }
  };
  const size_t n = collector_group_->num_collectors();
  ThreadPool* pool = n > 1 ? ProbePool() : nullptr;
  if (pool == nullptr) {
    for (size_t c = 0; c < n; ++c) {
      pump(c);
    }
    return;
  }
  for (size_t c = 0; c < n; ++c) {
    pool->Submit([&pump, c] { pump(c); });
  }
  pool->WaitAll();
}

DetectorSystem::WindowResult DetectorSystem::RunWindow(const FailureScenario& scenario,
                                                       Rng& rng) {
  return RunWindowWithChurn(scenario, {}, rng);
}

DetectorSystem::WindowResult DetectorSystem::RunWindowWithChurn(
    const FailureScenario& scenario, std::span<const ChurnEvent> churn, Rng& rng) {
  return RunWindowImpl(scenario, churn, rng, /*streaming=*/false).window;
}

DetectorSystem::StreamingWindowResult DetectorSystem::RunWindowStreaming(
    const FailureScenario& scenario, std::span<const ChurnEvent> churn, Rng& rng) {
  return RunWindowImpl(scenario, churn, rng, /*streaming=*/true);
}

bool DetectorSystem::PrepareHistory() {
  if (history_log_ == nullptr && !options_.history_dir.empty()) {
    WindowLogOptions log_options;
    log_options.max_records_per_segment = options_.history_segment_records;
    log_options.max_segments = options_.history_max_segments;
    log_options.key = options_.report_key;
    history_log_ = std::make_unique<WindowLogWriter>(options_.history_dir, log_options);
    // Appending after a reopened log continues its numbering — the on-disk indices stay
    // monotonic, which the query plane's episode logic relies on.
    if (history_log_->ok()) {
      const WindowLogReadResult existing =
          ReadWindowLog(options_.history_dir, options_.report_key);
      if (!existing.windows.empty()) {
        history_window_index_ = existing.windows.back().window_index + 1;
      }
    }
  }
  return history_log_ != nullptr || history_sink_ != nullptr;
}

double DetectorSystem::StreamingWindowResult::FirstDetectionSeconds(LinkId link) const {
  for (const SegmentDiagnosis& d : timeline) {
    for (const SuspectLink& suspect : d.localization.links) {
      if (suspect.link == link) {
        return d.time_seconds;
      }
    }
  }
  return -1.0;
}

DetectorSystem::SegmentDiagnosis DetectorSystem::DiagnoseAt(int segment, double time_seconds,
                                                             bool window_end, bool history) {
  SegmentDiagnosis d{segment, time_seconds, {}, {}, {}};
  // One read of the running totals feeds every consumer. It folds whatever records are still
  // pending, so the diagnosis below reads the same serial point; the window-end Diagnose
  // consumes (clears) the store, so everything that reads it runs first.
  ObservationStore& store = diagnoser_.store();
  const ObservationView totals = store.RunningTotals(matrix_.NumPaths(), watchdog_);
  const std::span<const RttSketch> rtt =
      options_.anomaly ? store.RttRunningTotals() : std::span<const RttSketch>{};
  if (options_.anomaly) {
    d.anomalies = anomaly_engine_.Observe(matrix_, totals, rtt);
  }
  if (window_end) {
    // The merged RTT sketches at the close — the bit-identity surface the thread-count and
    // report-vs-direct gates compare.
    last_rtt_totals_.assign(rtt.begin(), rtt.end());
  }
  if (history) {
    history_sealer_.CutBoundary(segment, time_seconds, totals);
  }
  d.server_link_alarms = diagnoser_.ServerLinkAlarms(watchdog_);
  // The window end consumes the window; mid-window diagnoses localize over the view
  // options_.streaming_view selects.
  if (window_end) {
    d.localization = diagnoser_.Diagnose(matrix_, watchdog_);
  } else if (options_.streaming_view == StreamingViewMode::kSliding) {
    d.localization = diagnoser_.DiagnoseTrailing(matrix_, watchdog_);
  } else if (options_.streaming_view == StreamingViewMode::kDecay) {
    d.localization = diagnoser_.DiagnoseDecayed(matrix_, watchdog_);
  } else if (options_.incremental_diagnosis) {
    d.localization = diagnoser_.DiagnoseRunning(matrix_, watchdog_);
  } else {
    d.localization = diagnoser_.DiagnoseRunningFull(matrix_, watchdog_);
  }
  if (history) {
    history_sealer_.AttachDiagnosis(d.localization.links, d.server_link_alarms);
    history_sealer_.AttachAnomalies(d.anomalies);
  }
  return d;
}

DetectorSystem::StreamingWindowResult DetectorSystem::RunWindowImpl(
    const FailureScenario& scenario, std::span<const ChurnEvent> churn, Rng& rng,
    bool streaming) {
  StreamingWindowResult out;
  WindowResult& result = out.window;
  const int segments = options_.segments_per_window;
  const int cadence = options_.diagnose_every_segments;
  const double window = options_.window_seconds;

  // Retention: when any sink is attached, the window is sealed at its close — each diagnosis
  // boundary cuts a sparse delta of the merged running totals, so the log carries exactly the
  // views the live diagnoses localized over (what makes QueryEngine replay bit-identical).
  const bool history = PrepareHistory();
  if (history) {
    history_sealer_.BeginWindow(history_window_index_);
  }
  if (options_.anomaly) {
    // Re-base the engine's per-slot totals at zero — the store cleared at the last window's
    // Diagnose — without touching the learned baselines or excursion runs.
    anomaly_engine_.BeginWindow();
  }

  if (options_.report_plane) {
    // Open the report-plane window: (re)shape the collector fabric and its partition map to
    // the current options and pinglists, and open a fresh window id that namespaces this
    // window's frame sequence numbers — a straggler from the previous window is recognized
    // as stale instead of folding into the wrong aggregation period.
    PrepareReportFabric();
    ++report_window_id_;
    report_seq_.clear();
    collector_group_->BeginWindow(report_window_id_);
  }

  // The window is sliced at segment boundaries and churn-event timestamps; every slice is one
  // RunSegment (own shard seed). With segments == 1 and no streaming this is exactly the
  // classic batch window — same slices, same RNG draws.
  size_t next_event = 0;
  double t = 0.0;
  for (int seg = 1; seg <= segments; ++seg) {
    const double boundary = seg == segments ? window : seg * (window / segments);
    while (next_event < churn.size() && churn[next_event].time_seconds < window &&
           churn[next_event].time_seconds < boundary) {
      const ChurnEvent& event = churn[next_event];
      if (event.time_seconds - t > 1e-9) {
        RunSpan(scenario, t, event.time_seconds, rng, result);
      }
      const ChurnApplyResult applied = ApplyTopologyDelta(event.delta);
      // Earlier slices may have reported on the vacated slots; repair can reuse them within
      // this window and the final matrix no longer carries the old paths, so those stale
      // reports must not reach Diagnose. (Redispatched paths keep their slots — and their
      // observations.)
      diagnoser_.DropReports(applied.slots_vacated);
      ++result.churn_events_applied;
      t = std::max(t, event.time_seconds);
      ++next_event;
    }
    if (boundary - t > 1e-9) {
      RunSpan(scenario, t, boundary, rng, result);
      t = boundary;
    }
    if (options_.report_plane && seg < segments) {
      // Stamp the segment boundary for staleness accounting: frames folding after this point
      // straddled it (pipelined mode; under the barriered default nothing is ever queued
      // here). The last pump of the segment already ran, so an on-time fold counts 0.
      collector_group_->AdvanceBoundary();
    }
    if (streaming && seg < segments) {
      // Every boundary advances the streaming views (cumulative dirty set, sliding ring,
      // decayed totals) — O(slots changed this segment) — whether or not it diagnoses.
      diagnoser_.AdvanceSegment(matrix_, watchdog_);
      if (seg % cadence == 0) {
        // Non-consuming diagnosis: the window keeps accumulating, and the final Diagnose
        // below sees exactly what a batch window would.
        out.timeline.push_back(DiagnoseAt(seg, boundary, /*window_end=*/false, history));
      }
    }
  }
  if (options_.report_plane) {
    PumpReportBoundary(/*window_end=*/true);
  }
  SegmentDiagnosis end = DiagnoseAt(segments, window, /*window_end=*/true, history);
  result.localization = end.localization;
  result.server_link_alarms = end.server_link_alarms;
  result.anomalies = end.anomalies;
  // Detection and localization share the window's data: alarms are available one window after
  // the failure manifests, with no extra probing round.
  result.detection_latency_seconds = options_.window_seconds;
  if (streaming) {
    // The window-end diagnosis always happens, so the timeline always records it — whether or
    // not the last segment lands on the cadence. FirstDetectionSeconds therefore never misses
    // a failure the batch window would have caught.
    out.timeline.push_back(std::move(end));
  }
  if (history) {
    SealedWindow sealed = history_sealer_.Finish(
        matrix_.NumPaths(), result.churn_events_applied, overlay_.NumDeadLinks(),
        result.probes_sent, result.bytes_sent);
    if (history_log_ != nullptr) {
      history_log_->OnWindowSealed(sealed);
    }
    if (history_sink_ != nullptr) {
      history_sink_->OnWindowSealed(sealed);
    }
    history_sealer_.Recycle(std::move(sealed));
    ++history_window_index_;
  }
  return out;
}

}  // namespace detector
