// Queueing-based RTT model for the probe-overhead sensitivity experiment (Fig 4c/d): per-hop
// delay grows as base / (1 - utilization) (M/M/1-style), plus exponential jitter. Probe traffic
// adds utilization on the links it crosses, letting the bench show how (little) probing at
// 1..25 pps per pinger perturbs workload RTT and jitter.
#ifndef SRC_SIM_LATENCY_MODEL_H_
#define SRC_SIM_LATENCY_MODEL_H_

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/topo/topology.h"

namespace detector {

struct LatencyModelOptions {
  double per_hop_base_us = 40.0;       // propagation + switching per link traversal
  double link_capacity_mbps = 1000.0;  // testbed used 1GbE ports
  double jitter_scale_us = 8.0;        // exponential jitter amplitude at zero load
  double max_utilization = 0.98;       // clamp to keep the M/M/1 term finite

  bool operator==(const LatencyModelOptions&) const = default;
};

// Every link's round-trip terms under one load vector, worked out once: the fixed delay of
// its two traversals, 2·base / (1 − ρ), and the scale of its jitter, 2·jitter / (1 − ρ) —
// one exponential draw per link per round trip, as in SampleRttUs.
struct LinkLatencyTerms {
  std::vector<double> hop_us;
  std::vector<double> jitter_us;
};

class LatencyModel {
 public:
  explicit LatencyModel(LatencyModelOptions options) : options_(options) {}

  // One RTT sample (microseconds) along the path given per-link offered load (Mbps). The
  // per-link reference: it works out every link's terms and draws one log1p per link.
  double SampleRttUs(std::span<const LinkId> links, std::span<const double> link_load_mbps,
                     Rng& rng) const;

  // The terms of every link under `link_load_mbps` (an empty span means `num_links` unloaded
  // links), for PathLatency.
  LinkLatencyTerms LinkTerms(std::span<const double> link_load_mbps, size_t num_links) const;

  const LatencyModelOptions& options() const { return options_; }

 private:
  LatencyModelOptions options_;
};

// SampleRttUs's distribution along one path, with the per-link terms summed once per path.
// A sample draws one uniform per link, in link order, as SampleRttUs does. When every link on
// the path has the same jitter scale s, the summed jitter Σ −s·log(1 − uᵢ) is drawn as
// −s·log ∏(1 − uᵢ): one log per sample. The links and terms must outlive the object.
class PathLatency {
 public:
  PathLatency(std::span<const LinkId> links, const LinkLatencyTerms& terms);

  double SampleUs(Rng& rng) const;

 private:
  std::span<const LinkId> links_;
  const LinkLatencyTerms& terms_;
  double hop_us_ = 0.0;
  bool shared_jitter_ = true;
  double jitter_us_ = 0.0;  // the shared scale when shared_jitter_
};

}  // namespace detector

#endif  // SRC_SIM_LATENCY_MODEL_H_
