#include "perfbench/src/workloads.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/common/rng.h"
#include "src/sim/anomaly_scenarios.h"

namespace perfbench {

using namespace detector;

namespace {

constexpr double kWindowSeconds = 30.0;
constexpr int kSegments = 6;
constexpr int kLossyLinks = 2;
constexpr size_t kReportCollectors = 2;
constexpr double kGrayDelayUs = 2500.0;
constexpr double kChurnLinkEventsPerMinute = 6.0;
constexpr double kChurnNodeEventsPerMinute = 0.5;

// Sampled lossy links lose enough packets to be localizable at 10 pps: random-partial rates
// are log-uniform in [5%, 100%]; the full-loss / deterministic-partial mix is the model's.
FailureModelOptions LossyLinkModel() {
  FailureModelOptions options;
  options.min_loss_rate = 0.05;
  options.knee_loss_rate = 0.05;
  options.low_rate_mass = 0.0;
  return options;
}

// Out-of-service intervals of every link and node a churn trace touches: an outage runs from
// its down/drain event to the paired up/undrain (or forever, when the recovery is beyond the
// trace).
class OutageIndex {
 public:
  explicit OutageIndex(std::span<const ChurnEvent> trace) {
    std::map<LinkId, double> link_since;
    std::map<NodeId, double> node_since;
    auto track = [](auto& since, auto& intervals, auto key, ChurnAction action, double t) {
      if (action == ChurnAction::kDown || action == ChurnAction::kDrain) {
        since.emplace(key, t);
      } else if (const auto it = since.find(key); it != since.end()) {
        intervals[key].emplace_back(it->second, t);
        since.erase(it);
      }
    };
    for (const ChurnEvent& event : trace) {
      for (const LinkChurn& c : event.delta.links) {
        track(link_since, links_, c.link, c.action, event.time_seconds);
      }
      for (const NodeChurn& c : event.delta.nodes) {
        track(node_since, nodes_, c.node, c.action, event.time_seconds);
      }
    }
    constexpr double kForever = 1e300;
    for (const auto& [link, since] : link_since) {
      links_[link].emplace_back(since, kForever);
    }
    for (const auto& [node, since] : node_since) {
      nodes_[node].emplace_back(since, kForever);
    }
  }

  // True when neither the link nor an endpoint is out of service at any time in [start, end).
  bool InService(const Topology& topo, LinkId link, double start, double end) const {
    const Link& l = topo.link(link);
    return Clear(links_, link, start, end) && Clear(nodes_, l.a, start, end) &&
           Clear(nodes_, l.b, start, end);
  }

 private:
  using Intervals = std::vector<std::pair<double, double>>;
  template <typename Key>
  static bool Clear(const std::map<Key, Intervals>& index, Key key, double start, double end) {
    const auto it = index.find(key);
    if (it == index.end()) {
      return true;
    }
    return std::none_of(it->second.begin(), it->second.end(),
                        [&](const auto& iv) { return iv.first < end && iv.second > start; });
  }

  std::map<LinkId, Intervals> links_;
  std::map<NodeId, Intervals> nodes_;
};

}  // namespace

bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec& out) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "steady-direct") {
    spec.k = smoke ? 8 : 48;
  } else if (name == "full-planes") {
    spec.k = smoke ? 8 : 48;
    spec.probe_threads = 2;
    spec.report_plane = true;
    spec.anomaly = true;
    spec.history = true;
    spec.warm_windows = 2;
    spec.gray = true;
    spec.pps = 60.0;
  } else if (name == "churn-replay") {
    spec.k = smoke ? 6 : 16;
    spec.structured = false;
    spec.history = true;
    spec.churn = true;
    spec.max_windows = 4000;  // 10-20 ms windows
  } else {
    return false;
  }
  out = spec;
  return true;
}

DetectorSystemOptions SystemOptions(const WorkloadSpec& spec, const std::string& history_dir) {
  DetectorSystemOptions options;
  options.enum_mode = PathEnumMode::kFull;
  options.controller.packets_per_second = spec.pps;
  options.window_seconds = kWindowSeconds;
  options.segments_per_window = kSegments;
  options.diagnose_every_segments = 1;
  options.probe_threads = spec.probe_threads;
  options.report_plane = spec.report_plane;
  options.report_collectors = kReportCollectors;
  options.anomaly = spec.anomaly;
  if (spec.history) {
    options.history_dir = history_dir;
  }
  return options;
}

Schedule BuildSchedule(const WorkloadSpec& spec, const Topology& topo, uint64_t seed,
                       size_t max_windows) {
  Rng rng(HashCombine(seed, 0x5C4ED01EULL));
  Schedule schedule;
  schedule.warmup.resize(static_cast<size_t>(std::max(1, spec.warm_windows)));

  std::vector<ChurnEvent> trace;
  if (spec.churn) {
    ChurnOptions churn;
    churn.link_events_per_minute = kChurnLinkEventsPerMinute;
    churn.node_events_per_minute = kChurnNodeEventsPerMinute;
    trace = ChurnGenerator(topo, churn).Sample(kWindowSeconds * static_cast<double>(max_windows),
                                               rng);
  }

  const OutageIndex outages(trace);
  const FailureModel model(topo, LossyLinkModel());
  schedule.measured.resize(max_windows);
  for (size_t w = 0; w < max_windows; ++w) {
    WindowInput& input = schedule.measured[w];
    const double start = kWindowSeconds * static_cast<double>(w);
    if (spec.churn) {
      input.churn = WindowSlice(trace, start, start + kWindowSeconds);
    }
    // Lossy links must stay probed for the whole window, or accuracy would count links churn
    // made unobservable: resample while one is out of service (bounded; churn touches a few
    // links of thousands, so the first draw almost always stands).
    auto in_service = [&](LinkId link) {
      return outages.InService(topo, link, start, start + kWindowSeconds);
    };
    for (int attempt = 0; attempt < 64; ++attempt) {
      input.scenario = model.SampleLinkFailures(kLossyLinks, rng);
      if (std::all_of(input.scenario.failures.begin(), input.scenario.failures.end(),
                      [&](const LinkFailure& f) { return in_service(f.link); })) {
        break;
      }
    }
    input.lossy = input.scenario.FailedLinks();
    if (spec.gray) {
      LinkId gray = SampleMonitoredLink(topo, rng);
      while (std::find(input.lossy.begin(), input.lossy.end(), gray) != input.lossy.end()) {
        gray = SampleMonitoredLink(topo, rng);
      }
      input.gray = gray;
      const FailureScenario latency = GrayLatencyScenario(gray, kGrayDelayUs);
      input.scenario.failures.insert(input.scenario.failures.end(), latency.failures.begin(),
                                     latency.failures.end());
    }
  }
  return schedule;
}

}  // namespace perfbench
