// DetectorSystem: the end-to-end deTector pipeline (§3.2) over the simulator — path
// computation (PMC or a structured matrix), probing (controller -> pingers -> probe engine),
// and loss localization (diagnoser/PLL), organized in 30 s windows within 10-minute cycles.
//
// Window execution is sharded: each non-empty pinglist becomes one probe task (or, with
// probe_subshards, several entry-range tasks) run on a thread pool (probe_threads) into its
// own report buffer, on RNG streams keyed by (window seed, pinger id[, entry]); a serial fold
// hands the buffers in pinglist order to the ObservationStore — directly, or as wire frames
// the report plane folds at the segment-end barrier. Results are bit-identical at any thread
// count.
//
// Topology churn runs through ApplyTopologyDelta(): overlay update -> incremental probe-matrix
// repair (IncrementalPmc) -> minimal per-pinger pinglist diffs — the milliseconds-scale
// alternative to RecomputeCycle()'s from-scratch rebuild. RunWindowWithChurn() exercises churn
// mid-window: probes before each event see the failed links, the delta is applied at its
// timestamp, and the remainder of the window probes with the repaired pinglists.
//
// Continuous diagnosis: a window can be executed in segments_per_window equal probe slices
// instead of one monolithic slice, and RunWindowStreaming() then diagnoses on the store's
// running totals every diagnose_every_segments slices — a time series of LocalizeResults that
// prices how fast a failure is *seen*, not just whether it is. The final-segment result is
// bit-identical to the batch window on the same seed and slicing (the mid-window reads are
// non-consuming), which is test-gated.
#ifndef SRC_DETECTOR_SYSTEM_H_
#define SRC_DETECTOR_SYSTEM_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/anomaly/anomaly_engine.h"
#include "src/common/thread_pool.h"
#include "src/detector/controller.h"
#include "src/detector/diagnoser.h"
#include "src/detector/pinger.h"
#include "src/history/window_log.h"
#include "src/history/window_sink.h"
#include "src/localize/pll.h"
#include "src/net/transport.h"
#include "src/pmc/incremental.h"
#include "src/pmc/pmc.h"
#include "src/report/collector.h"
#include "src/report/collector_group.h"
#include "src/report/partition.h"
#include "src/routing/path_provider.h"
#include "src/sim/churn.h"
#include "src/sim/probe_engine.h"
#include "src/sim/watchdog.h"
#include "src/topo/delta.h"

namespace detector {

// What the mid-window diagnoses of RunWindowStreaming localize over. The window-end diagnosis
// is always the cumulative whole-window one, so the batch/streaming bit-exactness gate holds
// in every mode.
enum class StreamingViewMode {
  kCumulative,  // the whole accumulated window (incremental PLL over dirty components)
  kSliding,     // the trailing sliding_window_segments segment deltas — localizes loss
                // episodes that appear and clear inside one window
  kDecay,       // exponentially-decayed per-slot totals (decay_factor per segment)
};

struct DetectorSystemOptions {
  ControllerOptions controller;
  PmcOptions pmc;
  PathEnumMode enum_mode = PathEnumMode::kFull;
  PllOptions pll;
  ProbeConfig probe;
  double window_seconds = 30.0;  // report aggregation / diagnosis period
  int confirm_packets = 2;
  // Probe-plane shard parallelism: each window splits into per-pinger shards executed on this
  // many threads (0 = hardware concurrency). Results are bit-identical at any thread count —
  // every shard draws from its own RNG stream keyed by (window seed, pinger id).
  size_t probe_threads = 0;
  // Sub-sharded probe execution: > 0 splits every pinglist's entry range into up to this many
  // contiguous sub-shards, each an independent pool task, so one giant pinglist no longer
  // pins the parallel-window tail to a single worker. Sub-shards draw per-entry RNG streams
  // keyed by (window seed, pinger, entry index), making counters invariant to both the
  // sub-shard count and the thread count (gated in tests/parallel_window_test.cc); their
  // reports are buffered and folded serially in (pinglist, entry) order, preserving the
  // store's single-writer shard contract and the legacy record order. 0 (the default) keeps
  // the one-stream-per-pinger legacy path bit-for-bit; note >= 1 is a different — equally
  // deterministic — RNG trajectory than 0, so compare like with like.
  int probe_subshards = 0;
  // Threads IncrementalPmc::ApplyDelta may repair touched decomposition components on when a
  // maintenance wave dirties several at once (0 = hardware concurrency). Bit-identical to
  // serial repair at any value. Ignored in fixed-matrix mode (no solver to parallelize).
  int pmc_repair_threads = 1;
  // Continuous diagnosis: probe slices per window (1 = the classic monolithic batch window;
  // higher values execute the same window in equal time slices, each on its own shard seed)
  // and, for RunWindowStreaming, how often to diagnose, in slices. Slicing changes the RNG
  // trajectory, so results are comparable only between runs with the same slicing.
  int segments_per_window = 1;
  int diagnose_every_segments = 1;
  // Mid-window diagnosis view (see StreamingViewMode) and its parameters. The ring/decay
  // state behind the non-cumulative views is only maintained while its view is selected, so
  // the default cumulative view pays nothing for them.
  StreamingViewMode streaming_view = StreamingViewMode::kCumulative;
  int sliding_window_segments = 4;  // trailing window width, in segments (kSliding only)
  double decay_factor = 0.5;        // per-segment decay (kDecay only)
  // kDecay only: quantize the decay to shift-based halving at fixed boundaries (totals >>= 1
  // every ~log(0.5)/log(decay_factor) segments) so ordinary boundaries perturb only dirty
  // slots and the decay view localizes incrementally. An approximation — episode-detection
  // agreement with the exact view is test-gated, not bit-exactness.
  bool decay_quantized = false;
  // Cumulative mid-window diagnoses use incremental PLL (re-score only dirty components).
  // false = full PLL at every boundary — the bit-exactness oracle and the bench baseline.
  bool incremental_diagnosis = true;
  // Report plane: shards emit their counters as encoded wire frames (src/report) over a
  // transport (src/net) into a Collector that folds them back into the ObservationStore,
  // instead of writing the store directly — the deployed pinger -> analyzer seam. Under the
  // default lossless in-process loopback this is bit-identical to direct mode (ctest-gated);
  // SetReportTransport installs a fault-injecting loopback. (The in-process plane needs a
  // transport whose Send round-trips to its own Receive; the split UDP deployment instead
  // pairs a Connect-side emitter process with a Bind-side collector process — see
  // examples/monitor_daemon.cc --mode=agent|collector.)
  bool report_plane = false;
  // Observations batched per wire frame before the emitter seals and sends it.
  size_t report_batch_entries = 64;
  // Collector fabric: the report plane runs N collector instances, each owning a static
  // partition of the pinger space (a deterministic PartitionMap over the pinglists, rebuilt
  // at every window open), each with its own transport; emitters route frames by the map.
  // All N fold into the one diagnosis-tier store — their partitions are disjoint, so they
  // ingest in parallel with no cross-collector barrier.
  size_t report_collectors = 1;
  // Ingest shards per collector instance: pinger-affine decode/fold lanes (see
  // CollectorOptions::ingest_shards). The in-system segment barrier drains them in one pass;
  // a standalone collector may drain them on concurrent threads.
  size_t report_ingest_shards = 1;
  // Pipelined report plane: drop the per-segment flush-and-drain barrier and let frames
  // straddle segment boundaries — the (slot, epoch) stamps make late folds land exactly
  // where an on-time fold would have. Mid-window boundaries fold at most report_pump_budget
  // frames per collector (0 = everything available); the window end still drains fully, so
  // the window-end result over a lossless transport stays identical to barriered mode. The
  // gate for this mode is bounded staleness — every frame folds within report_pipeline_depth
  // boundaries of arrival (CollectorStats::max_fold_staleness) — not mid-window
  // bit-exactness; the default barriered mode keeps the 1/2/8-thread bit-identical gates.
  bool report_pipeline = false;
  int report_pipeline_depth = 2;
  size_t report_pump_budget = 0;
  // Frame-authentication key shared by every emitter and collector in this system (see
  // ReportKey) — frames tagged under any other key are rejected kBadAuth and counted as
  // tampered, never folded.
  ReportKey report_key;
  // Collector liveness horizon in clock ticks (every window open and segment boundary is a
  // tick): a pinger silent longer than this is reported stale via CollectorStats. 0 = off.
  uint64_t report_liveness_horizon = 0;
  // Retention seam (src/history): non-empty publishes every sealed window — per-boundary
  // observation deltas, the diagnosis timeline, churn metadata — into an append-only
  // WindowLog under this directory, in every window mode (direct, report-plane barriered,
  // report-plane pipelined). The log authenticates records under report_key, the same
  // deployment key the wire frames use. Empty (the default) retains nothing — the window's
  // state evaporates at the boundary exactly as before.
  std::string history_dir;
  // Window-log rotation/retention knobs (see WindowLogOptions): records per segment file, and
  // how many segment files to keep (0 = unbounded).
  size_t history_segment_records = 256;
  size_t history_max_segments = 0;
  // Multi-signal anomaly plane (src/anomaly): pingers additionally sample per-path RTT into
  // deterministic mergeable sketches carried through the store (and, in report mode, the wire
  // frames); at every diagnosis boundary adaptive EWMA baselines watch the loss-rate and
  // RTT-quantile deltas, and sustained excursions are fused through the PLL partition
  // machinery into LinkAnomaly alarms — gray failures that delay-but-deliver are localized
  // without any fixed loss threshold. Off by default: with anomaly == false no RTT is sampled
  // and every loss counter, RNG draw, and diagnosis is bit-identical to the pre-anomaly build.
  bool anomaly = false;
  AnomalyOptions anomaly_options;
  // RTT observation channel (anomaly == true): samples per surviving path per probe slice and
  // the sketch resolution, plus the queueing model the samples are drawn from.
  int rtt_samples_per_path = 4;
  int rtt_bins = RttSketch::kDefaultBins;
  LatencyModelOptions latency;
};

class DetectorSystem {
 public:
  // Computes the probe matrix from the provider with PMC. The enumerated candidate set is
  // retained (inside an IncrementalPmc) so topology deltas can be absorbed incrementally.
  DetectorSystem(const PathProvider& provider, DetectorSystemOptions options);
  // Uses a pre-built probe matrix (e.g. the structured generator at large scale). Without a
  // candidate set, ApplyTopologyDelta degrades to dropping/restoring pinglist entries on the
  // affected links — no greedy repair.
  DetectorSystem(const Topology& topo, ProbeMatrix matrix, DetectorSystemOptions options);

  // Re-runs path computation and pinglist dispatch (start of a 10-minute cycle). Respects
  // current watchdog and link-state overlay: the rebuild covers live links only.
  void RecomputeCycle();

  struct ChurnApplyResult {
    ChurnRepairStats repair;
    size_t links_gone_dead = 0;
    size_t links_back_live = 0;
    size_t paths_removed = 0;
    size_t paths_added = 0;
    size_t pinglists_touched = 0;
    size_t entries_removed = 0;
    size_t entries_added = 0;
    uint64_t overlay_version = 0;
    std::vector<PinglistDiff> diffs;  // the per-pinger work orders this delta dispatched
    // Matrix slots the repair vacated: their old path is gone from the matrix (and the slot
    // may be reused), so buffered observations keyed by these slots are stale. Paths that were
    // merely redispatched to other pingers (server churn) are not listed — their slots and
    // observations stay valid.
    std::vector<PathId> slots_vacated;
  };

  // Absorbs one topology delta without a full recompute: updates the link-state overlay and
  // watchdog (server churn), repairs the probe matrix incrementally, and dispatches minimal
  // pinglist diffs. The cheap alternative to RecomputeCycle().
  ChurnApplyResult ApplyTopologyDelta(const TopologyDelta& delta);

  struct WindowResult {
    LocalizeResult localization;
    std::vector<ServerLinkAlarm> server_link_alarms;
    // Anomaly-plane alarms at window end (empty unless options.anomaly).
    std::vector<LinkAnomaly> anomalies;
    int64_t probes_sent = 0;  // round trips including confirmations
    int64_t bytes_sent = 0;
    double detection_latency_seconds = 0.0;
    size_t churn_events_applied = 0;
  };

  // One 30 s window under the given failure scenario.
  WindowResult RunWindow(const FailureScenario& scenario, Rng& rng);

  // One window with mid-window topology churn: `churn` event times are window-relative;
  // events inside [0, window_seconds) are applied at their timestamps, later ones are ignored.
  // Probes sent before an event experience full loss on down links; after the event the
  // repaired pinglists route around them. To drive consecutive windows from one long
  // ChurnGenerator trace, rebase it per window with WindowSlice (src/sim/churn.h).
  WindowResult RunWindowWithChurn(const FailureScenario& scenario,
                                  std::span<const ChurnEvent> churn, Rng& rng);

  // One mid-window diagnosis taken at a segment boundary (continuous mode).
  struct SegmentDiagnosis {
    int segment = 0;             // 1-based index of the boundary the diagnosis was taken at
    double time_seconds = 0.0;   // window-relative boundary time
    LocalizeResult localization;
    std::vector<ServerLinkAlarm> server_link_alarms;
    // Anomaly-plane alarms raised at this boundary (empty unless options.anomaly).
    std::vector<LinkAnomaly> anomalies;
  };

  struct StreamingWindowResult {
    WindowResult window;  // identical to the batch window on the same seed and slicing
    // Diagnoses at every diagnose_every_segments boundary plus the window-end diagnosis, in
    // time order; the last entry always equals window.localization.
    std::vector<SegmentDiagnosis> timeline;

    // Window-relative time of the first diagnosis whose suspect set contains `link`
    // (first-detection latency of an injected failure); negative when never detected.
    double FirstDetectionSeconds(LinkId link) const;
  };

  // One window in continuous-diagnosis mode: probes run in segments_per_window slices (with
  // optional mid-window churn, as in RunWindowWithChurn) and PLL runs on the running
  // observation totals every diagnose_every_segments boundaries without consuming them. The
  // returned window result is bit-identical to RunWindowWithChurn on the same seed.
  StreamingWindowResult RunWindowStreaming(const FailureScenario& scenario,
                                           std::span<const ChurnEvent> churn, Rng& rng);

  const Topology& topology() const { return topo_; }
  const ProbeMatrix& probe_matrix() const { return matrix_; }
  const std::vector<Pinglist>& pinglists() const { return pinglists_; }
  Watchdog& watchdog() { return watchdog_; }
  const PmcStats& pmc_stats() const { return pmc_stats_; }
  const LinkStateOverlay& overlay() const { return overlay_; }
  // Null when constructed from a fixed matrix.
  const IncrementalPmc* incremental() const { return incremental_.get(); }
  const PathPingerIndex& path_index() const { return path_index_; }
  // Re-sizes the probe-plane shard pool (0 = hardware concurrency). Takes effect at the next
  // window; does not change results, only wall-clock.
  void set_probe_threads(size_t n) { options_.probe_threads = n; }
  // Re-splits pinglists into entry-range sub-shards (see the option comment; takes effect at
  // the next segment). Any value >= 1 yields identical results; 0 restores the legacy path.
  void set_probe_subshards(int n) { options_.probe_subshards = std::max(0, n); }
  // Re-sizes the incremental-repair worker count (no-op in fixed-matrix mode). Deltas stay
  // bit-identical at any value; only repair wall-clock changes.
  void set_pmc_repair_threads(int n);
  // Re-slices window execution / re-paces streaming diagnosis (both clamped to >= 1). Takes
  // effect at the next window. Changing the slicing changes the RNG trajectory — results are
  // comparable only between runs with equal segments_per_window.
  void set_segments_per_window(int n) { options_.segments_per_window = std::max(1, n); }
  void set_diagnose_every_segments(int n) {
    options_.diagnose_every_segments = std::max(1, n);
  }
  // Switches what mid-window diagnoses localize over (takes effect at the next window; the
  // window-end diagnosis is always cumulative). Probing and the final result are unaffected.
  void set_streaming_view(StreamingViewMode mode) {
    options_.streaming_view = mode;
    ConfigureDiagnoserViews();
  }
  void set_sliding_window_segments(int n) {
    options_.sliding_window_segments = std::max(1, n);
    ConfigureDiagnoserViews();
  }
  // Toggles quantized vs exact exponential decay (kDecay view; takes effect at the next
  // window — the quantized state is rebuilt from the window's segment deltas).
  void set_decay_quantized(bool quantized) {
    options_.decay_quantized = quantized;
    ConfigureDiagnoserViews();
  }
  // Toggles incremental vs full PLL for cumulative mid-window diagnoses (bit-identical by
  // contract; the toggle exists so tests and benches can price one against the other).
  void set_incremental_diagnosis(bool incremental) {
    options_.incremental_diagnosis = incremental;
  }
  // Routes shard observations through the wire-format report plane (takes effect at the next
  // window). Bit-identical to direct mode under the default lossless loopback transport.
  void set_report_plane(bool on) { options_.report_plane = on; }
  // Re-sizes the collector fabric / per-collector ingest shards (clamped >= 1; takes effect
  // at the next window, rebuilding the CollectorGroup and the partition map).
  void set_report_collectors(size_t n) { options_.report_collectors = std::max<size_t>(1, n); }
  void set_report_ingest_shards(size_t n) {
    options_.report_ingest_shards = std::max<size_t>(1, n);
  }
  // Toggles the pipelined (boundary-straddling) report plane and its knobs — see the option
  // comments. Takes effect at the next window.
  void set_report_key(const ReportKey& key) { options_.report_key = key; }
  void set_report_liveness_horizon(uint64_t ticks) {
    options_.report_liveness_horizon = ticks;
  }
  void set_report_pipeline(bool on) { options_.report_pipeline = on; }
  void set_report_pipeline_depth(int d) { options_.report_pipeline_depth = std::max(1, d); }
  void set_report_pump_budget(size_t frames) { options_.report_pump_budget = frames; }
  // Installs the wire backend report-plane windows run over (owned; replaces the default
  // lossless LoopbackTransport). The transport must round-trip its own Send to its own
  // Receive — in practice a LoopbackTransport, usually with injected faults. Install before
  // the first report-plane window or between windows — frames in flight on the old
  // transport are gone with it. Single-collector convenience: with report_collectors > 1 the
  // other partitions get default lossless loopbacks; use SetReportTransportFactory instead.
  void SetReportTransport(std::unique_ptr<Transport> transport);
  // Per-partition transport factory for the collector fabric: called once per collector
  // index when the fabric is (re)built. Replaces any transports already installed.
  void SetReportTransportFactory(std::function<std::unique_ptr<Transport>(size_t)> factory);
  // Null until the first report-plane window ran. collector() is the fabric's instance 0 —
  // the whole plane under the default report_collectors == 1.
  const Collector* collector() const {
    return collector_group_ == nullptr ? nullptr : &collector_group_->collector(0);
  }
  const CollectorGroup* collector_group() const { return collector_group_.get(); }
  Transport* report_transport(size_t i = 0) {
    return i < report_transports_.size() ? report_transports_[i].get() : nullptr;
  }
  // Toggles the anomaly plane (takes effect at the next window). Turning it on attaches RTT
  // observation to every subsequent probe slice; turning it off restores the pre-anomaly RNG
  // trajectory (sampling draws happen after all loss draws, so loss counters never change
  // within a mode, but the two modes are distinct — equally deterministic — trajectories).
  void set_anomaly(bool on) { options_.anomaly = on; }
  const AnomalyEngine& anomaly_engine() const { return anomaly_engine_; }
  // The store's merged per-slot RTT sketches captured at the last window's close, before
  // Diagnose cleared them — the bit-identity surface the thread-count and report-vs-direct
  // gates compare (empty unless options.anomaly).
  std::span<const RttSketch> last_window_rtt_totals() const { return last_rtt_totals_; }
  // Re-points (or disables, with "") the on-disk window log; takes effect at the next window.
  void set_history_dir(std::string dir) { options_.history_dir = std::move(dir); }
  // An additional, caller-owned sink sealed windows are published to alongside the on-disk
  // log (or alone, with no history_dir) — how tests and benches capture retention in memory.
  void set_history_sink(WindowSink* sink) { history_sink_ = sink; }
  // Null until the first window ran with a history_dir configured.
  const WindowLogWriter* history_log() const { return history_log_.get(); }
  // Sealed windows published so far (also the next window's index in the log).
  uint64_t history_windows_sealed() const { return history_window_index_; }

 private:
  // Shared window driver: slices [0, window_seconds) at segment boundaries and churn-event
  // timestamps, applies each delta at its time, and — when `streaming` — diagnoses at the
  // cadence boundaries into the timeline.
  StreamingWindowResult RunWindowImpl(const FailureScenario& scenario,
                                      std::span<const ChurnEvent> churn, Rng& rng,
                                      bool streaming);
  // Runs [t0, t1), further sliced at the scenario's episode boundaries so every probe slice
  // sees a fixed failure set. With no episodes this is exactly one RunSegment — same RNG
  // trajectory as before episodes existed.
  void RunSpan(const FailureScenario& scenario, double t0, double t1, Rng& rng,
               WindowResult& result);
  // One probe slice: per-pinger (or per-entry-range) tasks probe into report buffers on the
  // pool, then a serial fold in (pinglist, entry) order writes each list through its
  // ReportSink — the store shard, or a report emitter — and the report plane pumps. At one
  // thread a whole-list task streams into the sink directly, with no buffer.
  void RunSegment(const FailureScenario& scenario, double seconds, Rng& rng,
                  WindowResult& result);
  // End-of-segment report-plane fold: the barriered flush-and-drain, or the pipelined
  // budgeted pump + staleness enforcement; at the window end always the full drain.
  void PumpReportBoundary(bool window_end);
  // One diagnosis boundary: reads the running totals once and feeds, in order, the anomaly
  // engine, the history cut, the server-link alarms and the localization (the consuming
  // window-end Diagnose when `window_end`, else the options_.streaming_view diagnosis).
  SegmentDiagnosis DiagnoseAt(int segment, double time_seconds, bool window_end, bool history);
  // (Re)opens the window log when history_dir changed; true when any sink wants this
  // window sealed.
  bool PrepareHistory();
  // Enables exactly the diagnoser view state the selected streaming_view reads: the sliding
  // ring and the decayed totals cost O(changed slots) per segment boundary, so the default
  // cumulative view must not maintain them.
  void ConfigureDiagnoserViews();
  FailureScenario OverlaidScenario(const FailureScenario& scenario) const;
  // For each diffed pinglist: raises its version above the pinger's recorded high-water mark
  // (a pinger reappearing after an absence would otherwise restart at the default), patches
  // the diff to match, and records the new mark.
  void EnforceVersionFloors(std::vector<PinglistDiff>& diffs);

  const Topology& topo_;
  DetectorSystemOptions options_;
  std::unique_ptr<IncrementalPmc> incremental_;  // null when constructed from a fixed matrix
  ProbeMatrix matrix_;
  PmcStats pmc_stats_;
  LinkStateOverlay overlay_;
  Watchdog watchdog_;
  Controller controller_;
  Diagnoser diagnoser_;
  // Anomaly plane: the RTT model probe slices sample from when options_.anomaly is on, the
  // baseline/fusion engine fed at every diagnosis boundary, and the last window's merged RTT
  // sketches (captured before Diagnose clears the store).
  LatencyModel latency_model_;
  AnomalyEngine anomaly_engine_;
  std::vector<RttSketch> last_rtt_totals_;
  std::vector<Pinglist> pinglists_;
  // path -> pinger replica index over pinglists_, kept current by UpdatePinglists so delta
  // dispatch touches only the diff (rebuilt wholesale when BuildPinglists replaces the lists).
  PathPingerIndex path_index_;
  // Persistent shard workers, created lazily at the first parallel segment and resized when
  // probe_threads changes — window execution must not pay thread start-up per segment.
  std::unique_ptr<ThreadPool> pool_;
  // Rebuilds the collector fabric / transports to match the current options and pinglists —
  // called at every report-plane window open (Repartition only, when the shape is unchanged).
  void PrepareReportFabric();
  PartitionMap BuildReportPartition() const;
  // Report plane (created lazily at the first report-plane window): one transport per
  // collector partition, the collector fabric folding frames into the diagnoser's store, a
  // per-window id, and per-pinger frame sequence counters continuing across a window's probe
  // segments.
  std::vector<std::unique_ptr<Transport>> report_transports_;
  std::function<std::unique_ptr<Transport>(size_t)> report_transport_factory_;
  std::unique_ptr<CollectorGroup> collector_group_;
  uint64_t report_window_id_ = 0;
  std::map<NodeId, uint64_t> report_seq_;
  // Hardening options the live collector group was built with — a change forces a rebuild in
  // PrepareReportFabric (collector key/horizon are fixed at construction).
  ReportKey applied_report_key_;
  uint64_t applied_liveness_horizon_ = 0;
  // Retention: the owned on-disk log (history_dir), an optional caller-owned extra sink, the
  // sealer building the current window's record, and the monotonic sealed-window index.
  std::unique_ptr<WindowLogWriter> history_log_;
  std::string applied_history_dir_;
  WindowSink* history_sink_ = nullptr;
  WindowSealer history_sealer_;
  uint64_t history_window_index_ = 0;
  // Per-pinger version high-water marks. Outlives the pinglists themselves: a pinger whose
  // list vanishes for a cycle (unhealthy, no entries) must not restart at version 1, or a
  // diff consumer would discard everything after its return as stale.
  std::map<NodeId, int> version_floor_;
};

}  // namespace detector

#endif  // SRC_DETECTOR_SYSTEM_H_
