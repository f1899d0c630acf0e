// TracedSystem: the benchmark's layer-by-layer replica of one DetectorSystem streaming window.
// It owns the same components DetectorSystem does (controller, diagnoser and its store, probe
// engine, report emitters/collector fabric, anomaly engine, window sealer/log, overlay and
// incremental PMC) and calls their public functions in the order RunWindowStreaming does,
// wrapping every call in a span, so per-layer self time is measured from the benchmark's own
// files without touching the program.
//
// Scope: the configurations the benchmark's workloads use — streaming cumulative view with
// incremental diagnosis, legacy per-pinger probe shards (probe_subshards == 0), barriered
// report plane over lossless loopback, scenarios without time-bounded episodes. It runs
// single-threaded; the thread-count identity contract makes its window results equal to a
// multi-threaded DetectorSystem on the same seed, and the benchmark checks that they are.
//
// One deliberate difference: probes run into per-pinger buffers first and are written into the
// store (or the report emitters) afterwards, so the simulator's time (sim.*) never mixes with
// the system's. Per-shard record order, and with it every result, is unchanged.
#ifndef PERFBENCH_SRC_TRACED_SYSTEM_H_
#define PERFBENCH_SRC_TRACED_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/counting_transport.h"
#include "perfbench/src/spans.h"
#include "src/anomaly/anomaly_engine.h"
#include "src/detector/controller.h"
#include "src/detector/diagnoser.h"
#include "src/detector/system.h"
#include "src/history/window_log.h"
#include "src/history/window_sink.h"
#include "src/pmc/incremental.h"
#include "src/report/collector_group.h"
#include "src/sim/churn.h"
#include "src/sim/latency_model.h"
#include "src/sim/watchdog.h"
#include "src/topo/delta.h"

namespace perfbench {

// Per-window counts the layers report (the span recorder holds the times).
struct TracedWindowCounts {
  int64_t probes = 0;          // probe round trips (sim)
  int64_t rtt_samples = 0;     // RTT samples drawn into sketches (sim)
  int64_t records = 0;         // path + intra-rack records written to the store or emitters
  uint64_t frames = 0;         // report frames emitted
  uint64_t observations = 0;   // observations carried by those frames
  uint64_t frames_folded = 0;  // frames the collectors folded
  uint64_t decode_errors = 0;
  uint64_t tampered = 0;
  uint64_t wire_bytes = 0;
  int64_t anomaly_alarms = 0;  // LinkAnomaly alarms raised, summed over the window's boundaries
  int64_t components_repaired = 0;
  int64_t diff_entries = 0;    // pinglist entries removed + added by churn diffs
  bool log_append_ok = true;
};

class TracedSystem {
 public:
  // Fixed-matrix mode (structured workloads).
  TracedSystem(const detector::Topology& topo, detector::ProbeMatrix matrix,
               detector::DetectorSystemOptions options, SpanRecorder* spans);
  // Incremental-PMC mode: `pmc` already solved (its construction is set-up time the caller
  // measures).
  TracedSystem(const detector::Topology& topo, std::unique_ptr<detector::IncrementalPmc> pmc,
               detector::DetectorSystemOptions options, SpanRecorder* spans);
  TracedSystem(const TracedSystem&) = delete;
  TracedSystem& operator=(const TracedSystem&) = delete;

  // One streaming window; same contract as DetectorSystem::RunWindowStreaming.
  detector::DetectorSystem::StreamingWindowResult RunWindow(
      const detector::FailureScenario& scenario, std::span<const detector::ChurnEvent> churn,
      detector::Rng& rng);

  const TracedWindowCounts& last_counts() const { return counts_; }
  const detector::ProbeMatrix& probe_matrix() const { return matrix_; }
  // Null in fixed-matrix mode.
  const detector::IncrementalPmc* incremental() const { return incremental_.get(); }
  // Incremental-PMC mode: the matrix slot assignment (slot -> candidate id) each diagnosis of
  // the last window localized against, parallel to its timeline — what replay checks need to
  // rebuild the matrix of every boundary, including those between two churn events.
  using SlotAssignment = std::shared_ptr<const std::vector<detector::PathId>>;
  const std::vector<SlotAssignment>& last_boundary_slots() const { return boundary_slots_; }
  // Captures every report frame sent from the next window on; TakeCapturedFrames returns the
  // ones sent since the current window opened.
  void set_capture_frames(bool capture) { capture_frames_ = capture; }
  std::vector<std::vector<uint8_t>> TakeCapturedFrames();

 private:
  void Init();
  bool PrepareHistory();
  void PrepareReportFabric();
  detector::PartitionMap BuildReportPartition() const;
  detector::FailureScenario OverlaidScenario(const detector::FailureScenario& scenario) const;
  void RunSegment(const detector::FailureScenario& scenario, double seconds, detector::Rng& rng,
                  detector::DetectorSystem::WindowResult& result);
  std::vector<detector::PathId> ApplyTopologyDelta(const detector::TopologyDelta& delta);
  void EnforceVersionFloors(std::vector<detector::PinglistDiff>& diffs);
  void AddNetSpans();
  void SnapshotSlots();

  const detector::Topology& topo_;
  detector::DetectorSystemOptions options_;
  SpanRecorder* spans_;
  std::unique_ptr<detector::IncrementalPmc> incremental_;
  detector::ProbeMatrix matrix_;
  detector::LinkStateOverlay overlay_;
  detector::Watchdog watchdog_;
  detector::Controller controller_;
  detector::Diagnoser diagnoser_;
  detector::LatencyModel latency_model_;
  detector::AnomalyEngine anomaly_engine_;
  std::vector<detector::RttSketch> last_rtt_totals_;
  std::vector<detector::Pinglist> pinglists_;
  detector::PathPingerIndex path_index_;
  std::map<detector::NodeId, int> version_floor_;

  std::vector<std::unique_ptr<CountingTransport>> transports_;
  std::unique_ptr<detector::CollectorGroup> collector_group_;
  uint64_t report_window_id_ = 0;
  std::map<detector::NodeId, uint64_t> report_seq_;
  bool capture_frames_ = false;

  std::unique_ptr<detector::WindowLogWriter> history_log_;
  std::string applied_history_dir_;
  detector::WindowSealer history_sealer_;
  uint64_t history_window_index_ = 0;

  uint64_t matrix_version_ = 0;  // bumped whenever churn rebuilds the matrix
  uint64_t snapshot_version_ = ~0ULL;
  SlotAssignment current_slots_;
  std::vector<SlotAssignment> boundary_slots_;

  // Probe buffers reused across segments: one per non-empty pinglist.
  std::vector<detector::PingerWindowResult> probe_buffers_;
  TracedWindowCounts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_SYSTEM_H_
