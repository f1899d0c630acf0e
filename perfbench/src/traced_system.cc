#include "perfbench/src/traced_system.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"
#include "src/report/emitter.h"
#include "src/sim/probe_engine.h"

namespace perfbench {

using namespace detector;

TracedSystem::TracedSystem(const Topology& topo, ProbeMatrix matrix,
                           DetectorSystemOptions options, SpanRecorder* spans)
    : topo_(topo),
      options_(std::move(options)),
      spans_(spans),
      matrix_(std::move(matrix)),
      overlay_(topo_),
      watchdog_(topo_),
      controller_(topo_, options_.controller),
      diagnoser_(options_.pll),
      latency_model_(options_.latency),
      anomaly_engine_(options_.anomaly_options) {
  Init();
}

TracedSystem::TracedSystem(const Topology& topo, std::unique_ptr<IncrementalPmc> pmc,
                           DetectorSystemOptions options, SpanRecorder* spans)
    : topo_(topo),
      options_(std::move(options)),
      spans_(spans),
      incremental_(std::move(pmc)),
      matrix_(incremental_->BuildMatrix()),
      overlay_(topo_),
      watchdog_(topo_),
      controller_(topo_, options_.controller),
      diagnoser_(options_.pll),
      latency_model_(options_.latency),
      anomaly_engine_(options_.anomaly_options) {
  incremental_->set_repair_threads(std::max(0, options_.pmc_repair_threads));
  Init();
}

void TracedSystem::Init() {
  CHECK(options_.probe_subshards == 0) << "traced run covers the per-pinger probe path only";
  CHECK(options_.streaming_view == StreamingViewMode::kCumulative &&
        options_.incremental_diagnosis && !options_.report_pipeline)
      << "traced run covers the cumulative incremental, barriered configuration only";
  diagnoser_.set_sliding_segments(0);
  diagnoser_.set_decay_factor(0.0);
  diagnoser_.set_decay_quantized(false);
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);
  for (const Pinglist& list : pinglists_) {
    version_floor_[list.pinger] = list.version;
  }
}

std::vector<std::vector<uint8_t>> TracedSystem::TakeCapturedFrames() {
  std::vector<std::vector<uint8_t>> frames;
  for (const auto& transport : transports_) {
    for (auto& frame : transport->TakeCaptured()) {
      frames.push_back(std::move(frame));
    }
  }
  return frames;
}

bool TracedSystem::PrepareHistory() {
  if (options_.history_dir != applied_history_dir_) {
    applied_history_dir_ = options_.history_dir;
    history_log_.reset();
    if (!options_.history_dir.empty()) {
      WindowLogOptions log_options;
      log_options.max_records_per_segment = options_.history_segment_records;
      log_options.max_segments = options_.history_max_segments;
      log_options.key = options_.report_key;
      history_log_ = std::make_unique<WindowLogWriter>(options_.history_dir, log_options);
      if (history_log_->ok()) {
        const WindowLogReadResult existing =
            ReadWindowLog(options_.history_dir, options_.report_key);
        if (!existing.windows.empty()) {
          history_window_index_ = existing.windows.back().window_index + 1;
        }
      }
    }
  }
  return history_log_ != nullptr;
}

PartitionMap TracedSystem::BuildReportPartition() const {
  std::vector<NodeId> pingers;
  pingers.reserve(pinglists_.size());
  for (const Pinglist& list : pinglists_) {
    pingers.push_back(list.pinger);
  }
  return PartitionMap::Build(std::move(pingers), std::max<size_t>(1, options_.report_collectors));
}

void TracedSystem::PrepareReportFabric() {
  const size_t n = std::max<size_t>(1, options_.report_collectors);
  if (collector_group_ == nullptr) {
    CollectorGroupOptions group_options;
    group_options.num_collectors = n;
    group_options.collector.ingest_shards = std::max<size_t>(1, options_.report_ingest_shards);
    group_options.collector.key = options_.report_key;
    group_options.collector.liveness_horizon = options_.report_liveness_horizon;
    collector_group_ = std::make_unique<CollectorGroup>(diagnoser_.store(),
                                                        BuildReportPartition(), group_options);
  } else {
    collector_group_->Repartition(BuildReportPartition());
  }
  while (transports_.size() < n) {
    transports_.push_back(std::make_unique<CountingTransport>());
    transports_.back()->set_timed(spans_ != nullptr);
  }
}

FailureScenario TracedSystem::OverlaidScenario(const FailureScenario& scenario) const {
  if (overlay_.NumDeadLinks() == 0) {
    return scenario;
  }
  FailureScenario overlaid = scenario;
  for (const LinkId link : overlay_.FailedLinks()) {
    LinkFailure failure;
    failure.link = link;
    failure.type = FailureType::kFullLoss;
    failure.loss_rate = 1.0;
    overlaid.failures.push_back(failure);
  }
  return overlaid;
}

// Folds the transports' accumulated Send/Receive time into aggregate spans under the
// innermost open span.
void TracedSystem::AddNetSpans() {
  if (spans_ == nullptr) {
    return;
  }
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  uint32_t send_calls = 0;
  uint32_t recv_calls = 0;
  for (const auto& transport : transports_) {
    int64_t ns = 0;
    uint32_t calls = 0;
    transport->TakeSendTime(ns, calls);
    send_ns += ns;
    send_calls += calls;
    transport->TakeRecvTime(ns, calls);
    recv_ns += ns;
    recv_calls += calls;
  }
  spans_->Aggregate("net.send", send_ns, send_calls);
  spans_->Aggregate("net.recv", recv_ns, recv_calls);
}

void TracedSystem::RunSegment(const FailureScenario& scenario, double seconds, Rng& rng,
                              DetectorSystem::WindowResult& result) {
  CHECK(scenario.episodes.empty()) << "traced run does not slice failure episodes";
  const bool report = options_.report_plane;
  ProbeEngine engine = [&] {
    ScopedSpan span(spans_, "sim.engine");
    ProbeEngine built(topo_, OverlaidScenario(scenario), options_.probe);
    if (options_.anomaly) {
      built.AttachRttObservation(&latency_model_, {}, options_.rtt_samples_per_path,
                                 options_.rtt_bins);
    }
    return built;
  }();

  ObservationStore& store = diagnoser_.store();
  std::vector<const Pinglist*> lists;
  std::vector<ObservationStore::Shard*> shards;
  uint64_t window_seed = 0;
  {
    ScopedSpan span(spans_, "detector.open_shards");
    store.EnsureSlots(matrix_.NumPaths());
    window_seed = rng();
    for (const Pinglist& list : pinglists_) {
      if (list.entries.empty()) {
        continue;
      }
      lists.push_back(&list);
      shards.push_back(&store.OpenShard(list.pinger));
    }
  }

  // The network: every pinger's probes for this slice, into its own buffer.
  probe_buffers_.resize(std::max(probe_buffers_.size(), lists.size()));
  {
    ScopedSpan span(spans_, "sim.probe");
    for (size_t i = 0; i < lists.size(); ++i) {
      Rng shard_rng = ProbeEngine::ShardRng(window_seed, static_cast<uint64_t>(lists[i]->pinger));
      const Pinger pinger(*lists[i], options_.confirm_packets);
      probe_buffers_[i] = pinger.RunWindow(engine, seconds, shard_rng, &watchdog_);
    }
  }
  {
    ScopedSpan span(spans_, "bench.count");  // benchmark bookkeeping, not system work
    for (size_t i = 0; i < lists.size(); ++i) {
      const PingerWindowResult& probed = probe_buffers_[i];
      result.probes_sent += probed.probes_sent;
      result.bytes_sent += probed.bytes_sent;
      counts_.probes += probed.probes_sent;
      counts_.records += static_cast<int64_t>(probed.reports.size());
      for (const PathReport& r : probed.reports) {
        counts_.rtt_samples += r.rtt.total();
      }
    }
  }

  if (!report) {
    ScopedSpan span(spans_, "detector.store_record");
    for (size_t i = 0; i < lists.size(); ++i) {
      ObservationStore::Shard& shard = *shards[i];
      for (PathReport& r : probe_buffers_[i].reports) {
        if (r.path_id == PinglistEntry::kIntraRackPath) {
          shard.RecordIntraRack(r.target, r.sent, r.lost);
        } else if (r.path_id >= 0) {
          if (r.rtt.total() > 0) {
            shard.RecordPathWithRtt(r.path_id, r.target, r.sent, r.lost, std::move(r.rtt));
          } else {
            shard.RecordPath(r.path_id, r.target, r.sent, r.lost);
          }
        }
      }
    }
    return;
  }

  {
    ScopedSpan span(spans_, "report.emit");
    for (size_t i = 0; i < lists.size(); ++i) {
      const NodeId pinger = lists[i]->pinger;
      CountingTransport& transport =
          *transports_[static_cast<size_t>(collector_group_->RouteOf(pinger))];
      ReportEmitter emitter(pinger, report_window_id_, report_seq_[pinger], store.slot_epochs(),
                            transport, options_.report_batch_entries, options_.report_key);
      for (const PathReport& r : probe_buffers_[i].reports) {
        if (r.path_id == PinglistEntry::kIntraRackPath) {
          emitter.OnIntraRack(r.target, r.sent, r.lost);
        } else if (r.path_id >= 0) {
          emitter.OnPath(r.path_id, r.target, r.sent, r.lost);
          if (r.rtt.total() > 0) {
            emitter.OnPathRtt(r.path_id, r.target, r.rtt);
          }
        }
      }
      emitter.Flush();
      report_seq_[pinger] = emitter.next_seq();
      counts_.frames += emitter.stats().frames_emitted;
      counts_.observations += emitter.stats().observations_emitted;
      counts_.wire_bytes += emitter.stats().bytes_emitted;
    }
    AddNetSpans();
  }
  {
    ScopedSpan span(spans_, "report.collector_ingest");
    for (size_t c = 0; c < collector_group_->num_collectors(); ++c) {
      transports_[c]->Flush();
      collector_group_->collector(c).PumpFrom(*transports_[c]);
    }
    AddNetSpans();
  }
}

void TracedSystem::EnforceVersionFloors(std::vector<PinglistDiff>& diffs) {
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

// DetectorSystem::ApplyTopologyDelta, incremental-PMC branch. Returns the vacated slots.
std::vector<PathId> TracedSystem::ApplyTopologyDelta(const TopologyDelta& delta) {
  CHECK(incremental_ != nullptr) << "traced churn needs the incremental-PMC system";
  std::vector<NodeId> downed_servers;
  std::vector<NodeId> recovered_servers;
  LinkStateOverlay::Effect effect;
  {
    ScopedSpan span(spans_, "topo.overlay");
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
    effect = overlay_.Apply(delta);
  }

  std::vector<PathId> removed;
  std::vector<PathId> added;
  std::vector<PathId> vacated;
  {
    ScopedSpan span(spans_, "pmc.apply_delta");
    IncrementalPmc::DeltaOutcome outcome = incremental_->ApplyDelta(effect);
    counts_.components_repaired += outcome.stats.touched_components;
    vacated = outcome.removed_slots;
    removed = std::move(outcome.removed_slots);
    added = std::move(outcome.added_slots);
  }
  if (!removed.empty() || !added.empty()) {
    {
      ScopedSpan span(spans_, "pmc.build_matrix");
      matrix_ = incremental_->BuildMatrix();
    }
    ++matrix_version_;
    {
      ScopedSpan span(spans_, "detector.invalidate_cache");
      diagnoser_.InvalidateLocalizeCache();
    }
    ScopedSpan span(spans_, "anomaly.reset");
    anomaly_engine_.Reset();
  }

  ScopedSpan span(spans_, "detector.update_pinglists");
  if (!downed_servers.empty()) {
    const std::unordered_set<NodeId> down(downed_servers.begin(), downed_servers.end());
    const std::unordered_set<PathId> already_removed(removed.begin(), removed.end());
    for (const Pinglist& list : pinglists_) {
      const bool pinger_down = down.count(list.pinger) > 0;
      for (const PinglistEntry& entry : list.entries) {
        if (entry.path_id < 0) {
          continue;
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
  PinglistUpdate update =
      controller_.UpdatePinglists(pinglists_, matrix_, watchdog_, removed, added, downed_servers,
                                  recovered_servers, &path_index_);
  counts_.diff_entries += static_cast<int64_t>(update.entries_removed + update.entries_added);
  EnforceVersionFloors(update.diffs);
  return vacated;
}

// Benchmark bookkeeping, not system work: spanned as bench.* so the metrics can set it aside.
void TracedSystem::SnapshotSlots() {
  if (incremental_ == nullptr) {
    return;
  }
  ScopedSpan span(spans_, "bench.snapshot");
  if (snapshot_version_ != matrix_version_ || current_slots_ == nullptr) {
    auto slots = std::make_shared<std::vector<PathId>>(incremental_->NumSlots());
    for (size_t s = 0; s < slots->size(); ++s) {
      (*slots)[s] = incremental_->SlotCandidate(static_cast<PathId>(s));
    }
    current_slots_ = std::move(slots);
    snapshot_version_ = matrix_version_;
  }
  boundary_slots_.push_back(current_slots_);
}

DetectorSystem::StreamingWindowResult TracedSystem::RunWindow(
    const FailureScenario& scenario, std::span<const ChurnEvent> churn, Rng& rng) {
  counts_ = TracedWindowCounts{};
  boundary_slots_.clear();
  DetectorSystem::StreamingWindowResult out;
  DetectorSystem::WindowResult& result = out.window;
  const int segments = std::max(1, options_.segments_per_window);
  const int cadence = std::max(1, options_.diagnose_every_segments);
  const double window = options_.window_seconds;
  if (spans_ != nullptr) {
    spans_->set_boundary(0);
  }
  ScopedSpan window_span(spans_, "window");

  bool history = false;
  {
    ScopedSpan span(spans_, "history.seal");
    history = PrepareHistory();
    if (history) {
      history_sealer_.BeginWindow(history_window_index_);
    }
  }
  if (options_.anomaly) {
    ScopedSpan span(spans_, "anomaly.observe");
    anomaly_engine_.BeginWindow();
  }
  uint64_t folded_before = 0;
  uint64_t decode_errors_before = 0;
  uint64_t tampered_before = 0;
  if (options_.report_plane) {
    ScopedSpan span(spans_, "report.fabric");
    PrepareReportFabric();
    ++report_window_id_;
    report_seq_.clear();
    collector_group_->BeginWindow(report_window_id_);
    const CollectorStats stats = collector_group_->stats();
    folded_before = stats.frames_folded;
    decode_errors_before = stats.decode_errors;
    tampered_before = stats.tampered_dropped;
    for (const auto& transport : transports_) {
      transport->set_capture(capture_frames_);
      transport->TakeCaptured();  // drop frames of windows nobody collected
    }
  }

  size_t next_event = 0;
  double t = 0.0;
  for (int seg = 1; seg <= segments; ++seg) {
    if (spans_ != nullptr) {
      spans_->set_boundary(seg);
    }
    const double boundary = seg == segments ? window : seg * (window / segments);
    while (next_event < churn.size() && churn[next_event].time_seconds < window &&
           churn[next_event].time_seconds < boundary) {
      const ChurnEvent& event = churn[next_event];
      if (event.time_seconds - t > 1e-9) {
        RunSegment(scenario, event.time_seconds - t, rng, result);
      }
      const std::vector<PathId> vacated = ApplyTopologyDelta(event.delta);
      {
        ScopedSpan span(spans_, "detector.drop_reports");
        diagnoser_.DropReports(vacated);
      }
      ++result.churn_events_applied;
      t = std::max(t, event.time_seconds);
      ++next_event;
    }
    if (boundary - t > 1e-9) {
      RunSegment(scenario, boundary - t, rng, result);
      t = boundary;
    }
    if (options_.report_plane && seg < segments) {
      ScopedSpan span(spans_, "report.fabric");
      collector_group_->AdvanceBoundary();
    }
    if (seg < segments) {
      {
        ScopedSpan span(spans_, "detector.advance");
        diagnoser_.AdvanceSegment(matrix_, watchdog_);
      }
      if (seg % cadence == 0) {
        DetectorSystem::SegmentDiagnosis diagnosis;
        diagnosis.segment = seg;
        diagnosis.time_seconds = boundary;
        {
          ScopedSpan span(spans_, "detector.diagnose_running");
          diagnosis.localization = diagnoser_.DiagnoseRunning(matrix_, watchdog_);
          diagnosis.server_link_alarms = diagnoser_.ServerLinkAlarms(watchdog_);
        }
        if (options_.anomaly) {
          ObservationStore& store = diagnoser_.store();
          ObservationView totals;
          {
            ScopedSpan span(spans_, "detector.running_totals");
            totals = store.RunningTotals(matrix_.NumPaths(), watchdog_);
          }
          ScopedSpan span(spans_, "anomaly.observe");
          diagnosis.anomalies = anomaly_engine_.Observe(matrix_, totals, store.RttRunningTotals());
        }
        if (history) {
          ObservationView totals;
          {
            ScopedSpan span(spans_, "detector.running_totals");
            totals = diagnoser_.store().RunningTotals(matrix_.NumPaths(), watchdog_);
          }
          ScopedSpan span(spans_, "history.seal");
          history_sealer_.CutBoundary(seg, boundary, totals);
          history_sealer_.AttachDiagnosis(diagnosis.localization.links,
                                          diagnosis.server_link_alarms);
          history_sealer_.AttachAnomalies(diagnosis.anomalies);
        }
        counts_.anomaly_alarms += static_cast<int64_t>(diagnosis.anomalies.size());
        out.timeline.push_back(std::move(diagnosis));
        SnapshotSlots();
      }
    }
  }
  if (spans_ != nullptr) {
    spans_->set_boundary(segments);
  }
  {
    ScopedSpan span(spans_, "detector.final_diagnose");
    result.server_link_alarms = diagnoser_.ServerLinkAlarms(watchdog_);
  }
  if (options_.anomaly) {
    ObservationStore& store = diagnoser_.store();
    ObservationView totals;
    {
      ScopedSpan span(spans_, "detector.running_totals");
      totals = store.RunningTotals(matrix_.NumPaths(), watchdog_);
    }
    ScopedSpan span(spans_, "anomaly.observe");
    result.anomalies = anomaly_engine_.Observe(matrix_, totals, store.RttRunningTotals());
    const std::span<const RttSketch> rtt = store.RttRunningTotals();
    last_rtt_totals_.assign(rtt.begin(), rtt.end());
  } else {
    last_rtt_totals_.clear();
  }
  if (history) {
    ObservationView totals;
    {
      ScopedSpan span(spans_, "detector.running_totals");
      totals = diagnoser_.store().RunningTotals(matrix_.NumPaths(), watchdog_);
    }
    ScopedSpan span(spans_, "history.seal");
    history_sealer_.CutBoundary(segments, window, totals);
  }
  {
    ScopedSpan span(spans_, "detector.final_diagnose");
    result.localization = diagnoser_.Diagnose(matrix_, watchdog_);
  }
  result.detection_latency_seconds = options_.window_seconds;
  out.timeline.push_back(DetectorSystem::SegmentDiagnosis{
      segments, window, result.localization, result.server_link_alarms, result.anomalies});
  counts_.anomaly_alarms += static_cast<int64_t>(result.anomalies.size());
  SnapshotSlots();
  if (history) {
    SealedWindow sealed;
    {
      ScopedSpan span(spans_, "history.seal");
      history_sealer_.AttachDiagnosis(result.localization.links, result.server_link_alarms);
      history_sealer_.AttachAnomalies(result.anomalies);
      sealed = history_sealer_.Finish(matrix_.NumPaths(), result.churn_events_applied,
                                      overlay_.NumDeadLinks(), result.probes_sent,
                                      result.bytes_sent);
    }
    ScopedSpan span(spans_, "history.append");
    const uint64_t appended = history_log_->records_appended();
    history_log_->OnWindowSealed(sealed);
    counts_.log_append_ok = history_log_->ok() && history_log_->records_appended() == appended + 1;
    ++history_window_index_;
  }
  if (options_.report_plane) {
    const CollectorStats stats = collector_group_->stats();
    counts_.frames_folded = stats.frames_folded - folded_before;
    counts_.decode_errors = stats.decode_errors - decode_errors_before;
    counts_.tampered = stats.tampered_dropped - tampered_before;
  }
  return out;
}

}  // namespace perfbench
