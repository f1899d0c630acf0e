// Workload generator, kept apart from the system under test. A workload is a fixed system
// configuration plus a seeded schedule of per-window inputs — lossy links, a gray link, a
// slice of a topology-churn trace. BuildSchedule derives every schedule from the seed before
// any timing starts; the system only ever receives the generated FailureScenario and
// ChurnEvent inputs through its public window API.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/detector/system.h"
#include "src/sim/churn.h"
#include "src/sim/failure_model.h"
#include "src/topo/topology.h"

namespace perfbench {

// What differs between the workloads. Common to all of them (constants in workloads.cc):
// 30 s windows in 6 segments with a diagnosis at every boundary, two sampled lossy links per
// measured window, in-process loopback only.
struct WorkloadSpec {
  std::string name;
  int k = 48;
  // Structured fat-tree matrix (alpha 1, beta 2: 3 families of k^3/8 paths — 41,472 at k=48)
  // vs PMC over the full path enumeration (the churn runtime's IncrementalPmc).
  bool structured = true;
  double pps = 10.0;
  size_t probe_threads = 1;
  bool report_plane = false;  // over 2 collector partitions
  bool anomaly = false;
  bool history = false;
  // Clean windows before the measured ones; the first of them is part of set-up.
  int warm_windows = 1;
  bool gray = false;   // one GrayLatencyScenario link per measured window
  bool churn = false;  // a seeded ChurnGenerator trace sliced per window
  // Measured windows the schedule holds; a run stops early when it runs out.
  size_t max_windows = 600;
};

// Fills `out` for a known workload name; false otherwise. `smoke` shrinks the topology (and
// nothing else) for the benchmark's fast self-test.
bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec& out);

// System options for a workload; `history_dir` is used when the workload retains history.
detector::DetectorSystemOptions SystemOptions(const WorkloadSpec& spec,
                                              const std::string& history_dir);

struct WindowInput {
  detector::FailureScenario scenario;
  std::vector<detector::LinkId> lossy;         // loss ground truth (accuracy, detection)
  detector::LinkId gray = detector::kInvalidLink;  // latency-only ground truth
  std::vector<detector::ChurnEvent> churn;     // window-relative
};

struct Schedule {
  std::vector<WindowInput> warmup;    // clean, no churn
  std::vector<WindowInput> measured;  // up to max_windows
};

// Deterministic in (spec, topology, seed).
Schedule BuildSchedule(const WorkloadSpec& spec, const detector::Topology& topo, uint64_t seed,
                       size_t max_windows);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
