// perfbench: the repository benchmark. Drives DetectorSystem::RunWindowStreaming through its
// public API on one seeded workload and prints every metric by name with its unit; the last
// line of output is one JSON object (correct / attempted / failed / metrics).
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 --work-dir=DIR [--smoke]
//
// --trace=0 is the end-to-end run: set-up timed several times (median), then streaming windows
// for S seconds, with per-window output checks. --trace=1 is the per-layer run: an untraced
// single-threaded reference, then the TracedSystem replica of the same windows on the same
// seed, every layer call wrapped in a span; the span dump lands in DIR. Exit code 3 means an
// output check failed (the result line is still printed); 2 means bad arguments.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/counting_transport.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/traced_system.h"
#include "perfbench/src/workloads.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/detector/system.h"
#include "src/history/query.h"
#include "src/localize/metrics.h"
#include "src/pmc/structured_fattree.h"
#include "src/report/codec.h"
#include "src/routing/fattree_routing.h"
#include "src/topo/fattree.h"

namespace perfbench {
namespace {

using namespace detector;
namespace fs = std::filesystem;

constexpr uint64_t kSystemRngSalt = 0x5E5u;

double SecondsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) * 1e-9; }

double Median(std::vector<double> v) { return v.empty() ? 0.0 : Percentile(std::move(v), 50.0); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

// FNV-1a over the window-end suspect link ids of every measured window: equal digests mean
// equal suspect sets, so separate processes (the smoke test's untraced and traced runs) can
// be compared.
struct SuspectDigest {
  uint64_t h = 1469598103934665603ULL;
  void Add(const std::vector<SuspectLink>& links) {
    for (const SuspectLink& s : links) {
      Mix(static_cast<uint64_t>(s.link));
    }
    Mix(~0ULL);
  }
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ULL;
    }
  }
};

// Ordered metric list for printing and for the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample counts etc.
};

void PrintMetric(const Metric& m) {
  std::printf("metric %-28s %16.6f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
              m.note.c_str());
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---- The network and the system under test -----------------------------------------------

struct Network {
  std::unique_ptr<FatTree> fattree;
  std::unique_ptr<FatTreeRouting> routing;  // PMC workloads only
  const Topology& topology() const { return fattree->topology(); }
};

struct SetupTimes {
  double topology_s = 0.0;
  double matrix_s = 0.0;
  double system_s = 0.0;
  double first_window_s = 0.0;
  double total() const { return topology_s + matrix_s + system_s + first_window_s; }
};

// One untraced system: DetectorSystem plus the counting transports it reports through.
struct LiveSystem {
  Network net;
  std::unique_ptr<DetectorSystem> system;
  std::vector<CountingTransport*> transports;  // owned by the system's report fabric
  Rng rng;
  SetupTimes times;

  uint64_t WireBytes() const {
    uint64_t bytes = 0;
    for (const CountingTransport* t : transports) {
      bytes += t->bytes_sent();
    }
    return bytes;
  }
  uint64_t FramesSent() const {
    uint64_t frames = 0;
    for (const CountingTransport* t : transports) {
      frames += t->frames_sent();
    }
    return frames;
  }
};

// Builds topology, probe matrix and system, then runs the first (clean) window — the whole of
// it is set-up time: the first window pays the lazy pool, fabric and log creation.
std::unique_ptr<LiveSystem> SetUpLive(const WorkloadSpec& spec, DetectorSystemOptions options,
                                      const WindowInput& first_window, uint64_t seed) {
  auto live = std::make_unique<LiveSystem>();
  live->rng = Rng(HashCombine(seed, kSystemRngSalt));
  int64_t t0 = NowNs();
  live->net.fattree = std::make_unique<FatTree>(spec.k);
  live->times.topology_s = SecondsSince(t0);
  t0 = NowNs();
  if (spec.structured) {
    ProbeMatrix matrix = StructuredFatTreeProbeMatrix(*live->net.fattree, 1, 2);
    live->times.matrix_s = SecondsSince(t0);
    t0 = NowNs();
    live->system = std::make_unique<DetectorSystem>(live->net.topology(), std::move(matrix),
                                                    std::move(options));
  } else {
    // The PMC constructor enumerates candidates and solves the matrix itself; its whole time
    // is charged to the matrix here (the traced run splits it).
    live->net.routing = std::make_unique<FatTreeRouting>(*live->net.fattree);
    live->system = std::make_unique<DetectorSystem>(*live->net.routing, std::move(options));
    live->times.matrix_s = SecondsSince(t0);
    t0 = NowNs();
  }
  std::vector<CountingTransport*>* transports = &live->transports;
  live->system->SetReportTransportFactory([transports](size_t) {
    auto transport = std::make_unique<CountingTransport>();
    transports->push_back(transport.get());
    return std::unique_ptr<Transport>(std::move(transport));
  });
  live->times.system_s = SecondsSince(t0);
  t0 = NowNs();
  live->system->RunWindowStreaming(first_window.scenario, first_window.churn, live->rng);
  live->times.first_window_s = SecondsSince(t0);
  return live;
}

// Runs SetUpLive in a forked child and returns its total set-up time; negative on failure.
// The child reports through a pipe and leaves with _exit: no destructor or stdio flush of the
// parent's state runs twice.
double TimeSetupInChild(const WorkloadSpec& spec, const std::string& history_dir,
                        const WindowInput& first_window, uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) {
    return -1.0;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    close(fds[0]);
    std::error_code ec;
    fs::remove_all(history_dir, ec);
    const auto live = SetUpLive(spec, SystemOptions(spec, history_dir), first_window, seed);
    const double seconds = live->times.total();
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  if (read(fds[0], &seconds, sizeof(seconds)) != sizeof(seconds)) {
    seconds = -1.0;
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    seconds = -1.0;
  }
  std::error_code ec;
  fs::remove_all(history_dir, ec);
  return seconds;
}

// ---- Per-window outputs and checks ----------------------------------------------------------

// Matrix slot assignment (slot -> candidate id) of an incremental-PMC system: 6 bytes per
// slot where a ProbeMatrix copy would cost ~100 KB, so every window's replay inputs can be
// kept until the log is read back.
using SlotAssignment = TracedSystem::SlotAssignment;

SlotAssignment SlotsOf(const IncrementalPmc& pmc) {
  auto slots = std::make_shared<std::vector<PathId>>(pmc.NumSlots());
  for (size_t s = 0; s < slots->size(); ++s) {
    (*slots)[s] = pmc.SlotCandidate(static_cast<PathId>(s));
  }
  return slots;
}

// The probe matrix IncrementalPmc::BuildMatrix renders for a slot assignment.
ProbeMatrix MatrixOf(const IncrementalPmc& pmc, const std::vector<PathId>& slots) {
  const PathStore& candidates = pmc.candidates();
  PathStore paths;
  for (const PathId pid : slots) {
    if (pid >= 0) {
      paths.Add(candidates.src(pid), candidates.dst(pid), candidates.Links(pid));
    } else {
      paths.Add(kInvalidNode, kInvalidNode, {});
    }
  }
  return ProbeMatrix(std::move(paths), pmc.link_index());
}

bool SameMatrix(const ProbeMatrix& a, const ProbeMatrix& b) {
  if (a.NumPaths() != b.NumPaths()) {
    return false;
  }
  for (size_t p = 0; p < a.NumPaths(); ++p) {
    const auto id = static_cast<PathId>(p);
    const auto la = a.paths().Links(id);
    const auto lb = b.paths().Links(id);
    if (!std::equal(la.begin(), la.end(), lb.begin(), lb.end()) ||
        a.paths().src(id) != b.paths().src(id) || a.paths().dst(id) != b.paths().dst(id)) {
      return false;
    }
  }
  return true;
}

// One logged window to verify by replay: the live suspects at every diagnosis boundary and the
// slot assignment each boundary diagnosed against (null where the untraced run cannot know it:
// between two churn events of the window, where only the traced run sees the matrix).
struct ReplayTarget {
  std::vector<std::vector<SuspectLink>> timeline;
  std::vector<SlotAssignment> slots;
};

struct Accumulated {
  std::vector<double> window_ms;
  std::vector<double> detect_s;
  ConfusionCounts confusion;
  size_t gray_total = 0;
  size_t gray_named = 0;
  uint64_t wire_bytes = 0;
  uint64_t log_bytes = 0;
  size_t failed = 0;
  std::map<std::string, size_t> failures;  // check name -> windows failing it
  SuspectDigest digest;

  void Fail(const std::string& check) { ++failures[check]; }
};

void ScoreWindow(const WindowInput& input, const DetectorSystem::StreamingWindowResult& result,
                 Accumulated& acc) {
  for (const LinkId link : input.lossy) {
    const double t = result.FirstDetectionSeconds(link);
    if (t >= 0.0) {
      acc.detect_s.push_back(t);
    }
  }
  acc.confusion += EvaluateLocalization(result.window.localization.links, input.lossy);
  if (input.gray != kInvalidLink) {
    ++acc.gray_total;
    bool named = false;
    for (const auto& diagnosis : result.timeline) {
      for (const LinkAnomaly& anomaly : diagnosis.anomalies) {
        named |= anomaly.link == input.gray && (anomaly.signal & kAnomalySignalLatency) != 0;
      }
    }
    acc.gray_named += named ? 1 : 0;
  }
  acc.digest.Add(result.window.localization.links);
}

std::vector<std::vector<SuspectLink>> TimelineOf(
    const DetectorSystem::StreamingWindowResult& result) {
  std::vector<std::vector<SuspectLink>> timeline;
  for (const auto& diagnosis : result.timeline) {
    timeline.push_back(diagnosis.localization.links);
  }
  return timeline;
}

struct ReplayCheck {
  std::vector<double> replay_ms;   // Replay time per window, against its window-end matrix
  double load_ms = 0.0;            // QueryEngine::FromDir
  size_t boundaries_compared = 0;
  size_t boundaries_deferred = 0;  // matrix unknown in this run (see ReplayTarget)
};

// Reads the log back and replays every target window at live settings, comparing the replayed
// suspect sets with the live ones at every boundary whose matrix is known. Failed windows are
// marked in `window_failed` and counted in `acc`.
ReplayCheck CheckReplay(const std::string& dir, const IncrementalPmc& pmc, const Topology& topo,
                        const PllOptions& pll, size_t first_logged,
                        const std::vector<ReplayTarget>& targets,
                        std::vector<bool>& window_failed, Accumulated& acc,
                        SpanRecorder* spans) {
  ReplayCheck out;
  const int64_t t0 = NowNs();
  const QueryEngine engine = [&] {
    ScopedSpan span(spans, "history.load");
    return QueryEngine::FromDir(dir);
  }();
  out.load_ms = SecondsSince(t0) * 1e3;
  if (!engine.ok() || !engine.read_result().clean ||
      engine.num_windows() != first_logged + targets.size()) {
    std::printf("check replay: log unreadable or incomplete (%zu windows, expected %zu)\n",
                engine.num_windows(), first_logged + targets.size());
    for (size_t w = 0; w < targets.size(); ++w) {
      window_failed[w] = true;
      acc.Fail("replay_log");
    }
    return out;
  }
  ReplayOptions options;
  options.pll = pll;
  for (size_t w = 0; w < targets.size(); ++w) {
    const ReplayTarget& target = targets[w];
    bool same = true;
    // One replay per distinct matrix of the window, the window-end one first (and timed).
    std::vector<SlotAssignment> matrices = {target.slots.back()};
    for (const SlotAssignment& slots : target.slots) {
      if (slots == nullptr) {
        ++out.boundaries_deferred;
      } else if (std::find(matrices.begin(), matrices.end(), slots) == matrices.end()) {
        matrices.push_back(slots);
      }
    }
    for (size_t m = 0; m < matrices.size(); ++m) {
      const ProbeMatrix matrix = MatrixOf(pmc, *matrices[m]);
      std::vector<ReplayedWindow> replayed;
      {
        ScopedSpan span(m == 0 ? spans : nullptr, "history.replay");
        const int64_t start = NowNs();
        replayed = engine.Replay(topo, matrix, options, first_logged + w, 1);
        if (m == 0) {
          out.replay_ms.push_back(SecondsSince(start) * 1e3);
        }
      }
      same &= replayed.size() == 1 && replayed[0].boundaries.size() == target.timeline.size();
      for (size_t b = 0; same && b < target.timeline.size(); ++b) {
        if (target.slots[b] == matrices[m]) {
          same = replayed[0].boundaries[b].localization.links == target.timeline[b];
          ++out.boundaries_compared;
        }
      }
    }
    if (!same) {
      window_failed[w] = true;
      acc.Fail("replay_identity");
    }
  }
  return out;
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;  // small topologies, exactly kSmokeWindows measured windows
  std::string work_dir;
};

constexpr size_t kSmokeWindows = 2;

bool KeepGoing(const RunConfig& config, size_t done, size_t available, int64_t start_ns,
               double budget_s) {
  if (done >= available) {
    return false;
  }
  if (config.smoke) {
    return done < kSmokeWindows;
  }
  return done < 3 || SecondsSince(start_ns) < budget_s;
}

std::string FreshDir(const RunConfig& config, const std::string& leaf) {
  const std::string dir = config.work_dir + "/" + leaf;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

// ---- --trace=0: end-to-end metrics ----------------------------------------------------------

int RunEndToEnd(const RunConfig& config, const WorkloadSpec& spec, const Schedule& schedule) {
  const std::string history_dir = FreshDir(config, "history");
  // Set-up is timed several times, each in a fresh process: all but the last sample come from
  // forked children, the last is the set-up of the system measured below. Every sample starts
  // from an untouched heap, as a real start-up does, and this process only ever holds one
  // system, so its peak resident set is the live system's.
  const int setups = config.smoke ? 1 : 5;
  std::vector<double> setup_s;
  for (int r = 0; r + 1 < setups; ++r) {
    const double s = TimeSetupInChild(spec, history_dir + "-child", schedule.warmup[0], config.seed);
    if (s < 0.0) {
      std::fprintf(stderr, "set-up %d failed in its child process\n", r);
      return 1;
    }
    setup_s.push_back(s);
  }
  std::unique_ptr<LiveSystem> live =
      SetUpLive(spec, SystemOptions(spec, history_dir), schedule.warmup[0], config.seed);
  setup_s.push_back(live->times.total());
  std::printf("setup: topology %.3f s, matrix %.3f s, system %.3f s, first window %.3f s; "
              "samples", live->times.topology_s, live->times.matrix_s, live->times.system_s,
              live->times.first_window_s);
  for (const double s : setup_s) {
    std::printf(" %.3f", s);
  }
  std::printf("\n");
  DetectorSystem& system = *live->system;
  for (size_t w = 1; w < schedule.warmup.size(); ++w) {
    system.RunWindowStreaming(schedule.warmup[w].scenario, schedule.warmup[w].churn, live->rng);
  }

  Accumulated acc;
  std::vector<bool> window_failed;
  // Replay inputs (incremental-PMC workloads with history): the untraced run knows the matrix
  // at window open and close, so boundaries before the window's first churn event or after its
  // last are checked here; the traced run checks the ones in between.
  const IncrementalPmc* pmc = spec.history ? system.incremental() : nullptr;
  std::vector<ReplayTarget> targets;
  SlotAssignment open_slots = pmc != nullptr ? SlotsOf(*pmc) : nullptr;
  const double window_seconds = SystemOptions(spec, "").window_seconds;
  const int64_t start = NowNs();
  for (size_t w = 0; KeepGoing(config, w, schedule.measured.size(), start, config.seconds); ++w) {
    const WindowInput& input = schedule.measured[w];
    const uint64_t frames_before = live->FramesSent();
    const uint64_t wire_before = live->WireBytes();
    const CollectorStats collector_before =
        system.collector_group() != nullptr ? system.collector_group()->stats() : CollectorStats{};
    const uint64_t log_before = spec.history ? DirBytes(history_dir) : 0;
    const uint64_t appended_before =
        system.history_log() != nullptr ? system.history_log()->records_appended() : 0;

    const int64_t t0 = NowNs();
    const DetectorSystem::StreamingWindowResult result =
        system.RunWindowStreaming(input.scenario, input.churn, live->rng);
    const double ms = SecondsSince(t0) * 1e3;

    bool failed = false;
    auto check = [&](bool ok, const char* name) {
      if (!ok) {
        failed = true;
        acc.Fail(name);
      }
    };
    if (spec.report_plane) {
      const CollectorStats after = system.collector_group()->stats();
      const uint64_t emitted = live->FramesSent() - frames_before;
      check(after.frames_folded - collector_before.frames_folded == emitted, "frames_folded");
      check(after.decode_errors == collector_before.decode_errors, "decode_errors");
      check(after.tampered_dropped == collector_before.tampered_dropped, "tampered_frames");
      acc.wire_bytes += live->WireBytes() - wire_before;
    }
    if (spec.history) {
      const WindowLogWriter* log = system.history_log();
      check(log != nullptr && log->ok() && log->records_appended() == appended_before + 1,
            "log_append");
      acc.log_bytes += DirBytes(history_dir) - log_before;
    }
    if (pmc != nullptr) {
      const SlotAssignment close_slots =
          result.window.churn_events_applied > 0 ? SlotsOf(*pmc) : open_slots;
      check(SameMatrix(MatrixOf(*pmc, *close_slots), system.probe_matrix()), "slot_snapshot");
      ReplayTarget target;
      target.timeline = TimelineOf(result);
      for (const auto& diagnosis : result.timeline) {
        size_t before = 0;
        size_t events = 0;
        for (const ChurnEvent& event : input.churn) {
          if (event.time_seconds < window_seconds) {
            ++events;
            before += event.time_seconds < diagnosis.time_seconds ? 1 : 0;
          }
        }
        target.slots.push_back(before == 0 ? open_slots
                               : before == events ? close_slots
                                                  : nullptr);
      }
      targets.push_back(std::move(target));
      open_slots = close_slots;
    }
    acc.window_ms.push_back(ms);
    ScoreWindow(input, result, acc);
    window_failed.push_back(failed);
  }
  const double measured_s = SecondsSince(start);
  // Peak resident set of the live system, before the replay phase loads the log.
  const double peak_rss = PeakRssMiB();

  ReplayCheck replay;
  if (pmc != nullptr) {
    replay = CheckReplay(history_dir, *pmc, live->net.topology(), SystemOptions(spec, "").pll,
                         schedule.warmup.size(), targets, window_failed, acc, nullptr);
    std::printf("check replay_identity: %zu boundaries compared over %zu windows (log loaded in "
                "%.3f ms); %zu boundaries between two churn events of their window are compared "
                "by the traced run (--trace 1)\n",
                replay.boundaries_compared, targets.size(), replay.load_ms,
                replay.boundaries_deferred);
  }
  const std::vector<double>& replay_ms = replay.replay_ms;
  acc.failed = static_cast<size_t>(std::count(window_failed.begin(), window_failed.end(), true));
  live.reset();
  std::error_code ec;
  fs::remove_all(history_dir, ec);

  const size_t n = acc.window_ms.size();
  const double windows = static_cast<double>(std::max<size_t>(1, n));
  auto count_note = [](size_t samples) { return "n=" + std::to_string(samples); };
  const size_t beyond_p90 = n - static_cast<size_t>(0.9 * static_cast<double>(n) + 0.5);
  std::vector<Metric> primary = {
      {"setup_s", Median(setup_s), "s", count_note(setup_s.size()) + " set-ups"},
      {"window_ms_p50", Median(acc.window_ms), "ms", count_note(n) + " windows"},
      {"accuracy", acc.confusion.Accuracy(), "ratio",
       count_note(static_cast<size_t>(acc.confusion.true_positives +
                                      acc.confusion.false_negatives)) + " truly-bad links"},
      {"peak_rss_mb", peak_rss, "MiB", ""},
  };
  std::vector<Metric> extra = {
      {"window_ms_p90", Percentile(acc.window_ms, 90.0), "ms",
       count_note(n) + " windows, " + std::to_string(beyond_p90) + " beyond"},
      {"detect_s_p50", Median(acc.detect_s), "sim_s", count_note(acc.detect_s.size())},
      {"false_positive_ratio", acc.confusion.FalsePositiveRatio(), "ratio",
       count_note(static_cast<size_t>(acc.confusion.true_positives +
                                      acc.confusion.false_positives)) + " flagged"},
      {"wire_kb_per_window", static_cast<double>(acc.wire_bytes) / 1024.0 / windows, "KiB",
       spec.report_plane ? "" : "(no report plane)"},
      {"log_kb_per_window", static_cast<double>(acc.log_bytes) / 1024.0 / windows, "KiB",
       spec.history ? "" : "(no history)"},
      {"failed_share", static_cast<double>(acc.failed) / windows, "ratio",
       std::to_string(acc.failed) + "/" + std::to_string(n)},
  };
  if (spec.gray) {
    extra.push_back({"gray_accuracy",
                     acc.gray_total == 0 ? 0.0
                                         : static_cast<double>(acc.gray_named) /
                                               static_cast<double>(acc.gray_total),
                     "ratio", count_note(acc.gray_total) + " gray links"});
  }
  if (!replay_ms.empty()) {
    extra.push_back({"replay_window_ms_p50", Median(replay_ms), "ms",
                     count_note(replay_ms.size()) + " windows"});
  }
  std::printf("workload %s seed %" PRIu64 ": %zu windows in %.2f s\n", spec.name.c_str(),
              config.seed, n, measured_s);
  for (const Metric& m : primary) {
    PrintMetric(m);
  }
  for (const Metric& m : extra) {
    PrintMetric(m);
  }
  for (const auto& [check, windows_failing] : acc.failures) {
    std::printf("check %s FAILED in %zu window(s)\n", check.c_str(), windows_failing);
  }
  std::printf("suspect_digest %016" PRIx64 "\n", acc.digest.h);
  const bool correct = acc.failed == 0 && n > 0;
  PrintResult(correct, n, acc.failed, primary);
  return correct ? 0 : 3;
}

// ---- --trace=1: per-layer metrics -----------------------------------------------------------

// The traced run's decode-only pass over one window's captured frames, outside the window:
// the collectors' decode cost without their fold, and — re-encoding each decoded frame without
// its extension records — the share of wire bytes the RTT extension records take.
struct DecodePass {
  bool decoded_all = true;
  double decode_ms = 0.0;
  double rtt_bytes_share = 0.0;
};

DecodePass DecodeFrames(const std::vector<std::vector<uint8_t>>& frames, const ReportKey& key,
                        SpanRecorder& spans) {
  DecodePass pass;
  ReportFrame frame;
  {
    ScopedSpan span(&spans, "report.decode");
    const int64_t t0 = NowNs();
    for (const auto& bytes : frames) {
      pass.decoded_all &= ReportCodec::Decode(bytes, frame, key) == DecodeStatus::kOk;
    }
    pass.decode_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  }
  uint64_t total_bytes = 0;
  uint64_t loss_bytes = 0;
  std::vector<uint8_t> loss_only;
  for (const auto& bytes : frames) {
    if (ReportCodec::Decode(bytes, frame, key) == DecodeStatus::kOk) {
      frame.rtt.clear();
      ReportCodec::Encode(frame, loss_only, key);
      loss_bytes += loss_only.size();
    }
    total_bytes += bytes.size();
  }
  if (total_bytes > 0) {
    pass.rtt_bytes_share =
        static_cast<double>(total_bytes - loss_bytes) / static_cast<double>(total_bytes);
  }
  return pass;
}

int RunTraced(const RunConfig& config, const WorkloadSpec& spec, const Schedule& schedule) {
  // Untraced single-threaded reference over the same windows: the suspect sets the replica
  // must reproduce, and the window time the tracing overhead is measured against.
  WorkloadSpec reference_spec = spec;
  reference_spec.probe_threads = 1;
  const std::string reference_dir = FreshDir(config, "history-reference");
  std::vector<std::vector<std::vector<SuspectLink>>> reference_timelines;
  std::vector<double> reference_ms;
  {
    auto live = SetUpLive(reference_spec, SystemOptions(reference_spec, reference_dir),
                          schedule.warmup[0], config.seed);
    for (size_t w = 1; w < schedule.warmup.size(); ++w) {
      live->system->RunWindowStreaming(schedule.warmup[w].scenario, schedule.warmup[w].churn,
                                       live->rng);
    }
    const int64_t start = NowNs();
    for (size_t w = 0;
         KeepGoing(config, w, schedule.measured.size(), start, config.seconds * 0.45); ++w) {
      const WindowInput& input = schedule.measured[w];
      const int64_t t0 = NowNs();
      const auto result = live->system->RunWindowStreaming(input.scenario, input.churn, live->rng);
      reference_ms.push_back(SecondsSince(t0) * 1e3);
      reference_timelines.push_back(TimelineOf(result));
    }
  }
  std::error_code ec;
  fs::remove_all(reference_dir, ec);
  const size_t n = reference_timelines.size();

  // Traced set-up: the same steps as SetUpLive, split into topology / matrix / system spans.
  SpanRecorder spans;
  const std::string history_dir = FreshDir(config, "history");
  DetectorSystemOptions options = SystemOptions(spec, history_dir);
  options.probe_threads = 1;
  Network net;
  std::unique_ptr<TracedSystem> traced;
  SetupTimes setup;
  {
    int64_t t0 = NowNs();
    {
      ScopedSpan span(&spans, "setup.topology");
      net.fattree = std::make_unique<FatTree>(spec.k);
    }
    setup.topology_s = SecondsSince(t0);
    t0 = NowNs();
    if (spec.structured) {
      ProbeMatrix matrix = [&] {
        ScopedSpan span(&spans, "setup.matrix");
        return StructuredFatTreeProbeMatrix(*net.fattree, 1, 2);
      }();
      setup.matrix_s = SecondsSince(t0);
      t0 = NowNs();
      ScopedSpan span(&spans, "setup.system");
      traced = std::make_unique<TracedSystem>(net.topology(), std::move(matrix), options, &spans);
    } else {
      std::unique_ptr<IncrementalPmc> pmc;
      {
        ScopedSpan span(&spans, "setup.matrix");
        net.routing = std::make_unique<FatTreeRouting>(*net.fattree);
        pmc = std::make_unique<IncrementalPmc>(
            net.topology(), net.routing->Enumerate(options.enum_mode), options.pmc);
      }
      setup.matrix_s = SecondsSince(t0);
      t0 = NowNs();
      ScopedSpan span(&spans, "setup.system");
      traced = std::make_unique<TracedSystem>(net.topology(), std::move(pmc), options, &spans);
    }
    setup.system_s = SecondsSince(t0);
  }
  Rng rng(HashCombine(config.seed, kSystemRngSalt));
  for (const WindowInput& input : schedule.warmup) {
    traced->RunWindow(input.scenario, input.churn, rng);
  }

  // Measured windows. The decode-only pass over each window's captured frames runs after the
  // window closes, outside its span.
  traced->set_capture_frames(spec.report_plane);
  Accumulated acc;
  std::vector<ReplayTarget> targets;
  std::vector<bool> window_failed(n, false);
  std::vector<double> counts_probes, counts_rtt, counts_records, counts_frames, obs_per_frame,
      folded_ratio, net_bytes, rtt_share, decode_ms, alarms, components, diff_entries;
  for (size_t w = 0; w < n; ++w) {
    const WindowInput& input = schedule.measured[w];
    spans.set_window(static_cast<int32_t>(w));
    const auto result = traced->RunWindow(input.scenario, input.churn, rng);
    const TracedWindowCounts& counts = traced->last_counts();
    ScoreWindow(input, result, acc);
    ReplayTarget target{TimelineOf(result), traced->last_boundary_slots()};
    if (target.timeline != reference_timelines[w]) {
      window_failed[w] = true;
      acc.Fail("traced_vs_untraced_suspects");
    }
    if (traced->incremental() != nullptr && spec.history) {
      targets.push_back(std::move(target));
    }
    if (!counts.log_append_ok) {
      window_failed[w] = true;
      acc.Fail("log_append");
    }
    counts_probes.push_back(static_cast<double>(counts.probes));
    counts_rtt.push_back(static_cast<double>(counts.rtt_samples));
    counts_records.push_back(static_cast<double>(counts.records));
    alarms.push_back(static_cast<double>(counts.anomaly_alarms));
    components.push_back(static_cast<double>(counts.components_repaired));
    diff_entries.push_back(static_cast<double>(counts.diff_entries));
    if (spec.report_plane) {
      if (counts.frames_folded != counts.frames || counts.decode_errors != 0 ||
          counts.tampered != 0) {
        window_failed[w] = true;
        acc.Fail("report_wire");
      }
      counts_frames.push_back(static_cast<double>(counts.frames));
      obs_per_frame.push_back(counts.frames == 0 ? 0.0
                                                 : static_cast<double>(counts.observations) /
                                                       static_cast<double>(counts.frames));
      folded_ratio.push_back(counts.frames == 0 ? 0.0
                                                : static_cast<double>(counts.frames_folded) /
                                                      static_cast<double>(counts.frames));
      net_bytes.push_back(static_cast<double>(counts.wire_bytes));
      const DecodePass pass =
          DecodeFrames(traced->TakeCapturedFrames(), options.report_key, spans);
      if (!pass.decoded_all) {
        window_failed[w] = true;
        acc.Fail("decode_pass");
      }
      decode_ms.push_back(pass.decode_ms);
      rtt_share.push_back(pass.rtt_bytes_share);
    }
  }
  spans.set_window(-1);

  ReplayCheck replay;
  if (!targets.empty()) {
    replay = CheckReplay(history_dir, *traced->incremental(), net.topology(), options.pll,
                         schedule.warmup.size(), targets, window_failed, acc, &spans);
    std::printf("check replay_identity: %zu boundaries compared over %zu windows\n",
                replay.boundaries_compared, targets.size());
  }
  traced.reset();
  fs::remove_all(history_dir, ec);
  acc.failed = static_cast<size_t>(std::count(window_failed.begin(), window_failed.end(), true));

  // Per-window self time by span name, and trace health from the window root spans.
  const std::vector<Span>& all = spans.spans();
  const std::vector<int64_t> self = spans.SelfTimesNs();
  std::vector<std::map<std::string, double>> per_window(n);
  std::vector<double> window_ms(n, 0.0);
  std::vector<double> covered_ms(n, 0.0);
  std::map<std::pair<int32_t, int32_t>, double> boundary_ms;
  static const std::set<std::string> kBoundaryPipeline = {
      "detector.advance", "detector.diagnose_running", "detector.running_totals",
      "detector.final_diagnose", "anomaly.observe", "history.seal", "history.append"};
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.window < 0 || static_cast<size_t>(s.window) >= n) {
      continue;
    }
    const auto w = static_cast<size_t>(s.window);
    const std::string name = s.name;
    const double ms = static_cast<double>(self[i]) * 1e-6;
    if (name == "window") {
      window_ms[w] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      continue;
    }
    if (name.rfind("bench.", 0) == 0) {
      window_ms[w] -= static_cast<double>(s.end_ns - s.start_ns) * 1e-6;  // checks, not system
      continue;
    }
    per_window[w][name] += ms;
    if (name != "report.decode") {
      covered_ms[w] += ms;
    }
    if (kBoundaryPipeline.contains(name)) {
      boundary_ms[{s.window, s.boundary}] += ms;
    }
  }
  auto layer_median = [&](std::initializer_list<const char*> names) {
    std::vector<double> v;
    for (size_t w = 0; w < n; ++w) {
      double sum = 0.0;
      for (const char* name : names) {
        const auto it = per_window[w].find(name);
        sum += it == per_window[w].end() ? 0.0 : it->second;
      }
      v.push_back(sum);
    }
    return Median(v);
  };
  auto prefix_median = [&](const std::string& prefix) {
    std::vector<double> v;
    for (size_t w = 0; w < n; ++w) {
      double sum = 0.0;
      for (const auto& [name, ms] : per_window[w]) {
        sum += name.rfind(prefix, 0) == 0 ? ms : 0.0;
      }
      v.push_back(sum);
    }
    return Median(v);
  };
  std::vector<double> history_share;
  for (size_t w = 0; w < n; ++w) {
    const double seal = per_window[w]["history.seal"] + per_window[w]["history.append"];
    history_share.push_back(window_ms[w] > 0.0 ? seal / window_ms[w] : 0.0);
  }
  std::vector<double> boundaries;
  for (const auto& [key, ms] : boundary_ms) {
    boundaries.push_back(ms);
  }
  double covered = 0.0;
  double wall = 0.0;
  for (size_t w = 0; w < n; ++w) {
    covered += covered_ms[w];
    wall += window_ms[w];
  }
  const double reference_p50 = Median(reference_ms);

  const std::vector<Metric> metrics = {
      {"sim.probe_ms", prefix_median("sim."), "ms", ""},
      {"sim.probes", Median(counts_probes), "count", ""},
      {"sim.rtt_samples", Median(counts_rtt), "count", ""},
      {"detector.store_record_ms", layer_median({"detector.open_shards", "detector.store_record",
                                                 "detector.drop_reports"}),
       "ms", ""},
      {"detector.records", Median(counts_records), "count", ""},
      {"detector.advance_ms", layer_median({"detector.advance"}), "ms", ""},
      {"detector.diagnose_running_ms",
       layer_median({"detector.diagnose_running", "detector.running_totals"}), "ms", ""},
      {"detector.final_diagnose_ms", layer_median({"detector.final_diagnose"}), "ms", ""},
      {"report.emit_ms", layer_median({"report.emit"}), "ms", ""},
      {"report.frames", Median(counts_frames), "count", ""},
      {"report.obs_per_frame", Median(obs_per_frame), "count", ""},
      {"report.collector_ingest_ms", layer_median({"report.collector_ingest"}), "ms", ""},
      {"report.decode_ms", Median(decode_ms), "ms", ""},
      {"report.folded_ratio", Median(folded_ratio), "ratio", ""},
      {"net.send_ms", layer_median({"net.send"}), "ms", ""},
      {"net.recv_ms", layer_median({"net.recv"}), "ms", ""},
      {"net.bytes", Median(net_bytes), "bytes", ""},
      {"net.rtt_bytes_share", Median(rtt_share), "ratio", ""},
      {"anomaly.observe_ms", prefix_median("anomaly."), "ms", ""},
      {"anomaly.alarms", Median(alarms), "count", ""},
      {"history.seal_ms", layer_median({"history.seal"}), "ms", ""},
      {"history.append_ms", layer_median({"history.append"}), "ms", ""},
      {"history.share", Median(history_share), "ratio", ""},
      {"history.load_ms", replay.load_ms, "ms", ""},
      {"history.replay_ms", Median(replay.replay_ms), "ms", ""},
      {"pmc.apply_delta_ms", prefix_median("pmc."), "ms", ""},
      {"pmc.components_repaired", Median(components), "count", ""},
      {"topo.overlay_ms", prefix_median("topo."), "ms", ""},
      {"detector.update_pinglists_ms", layer_median({"detector.update_pinglists"}), "ms", ""},
      {"detector.diff_entries", Median(diff_entries), "count", ""},
      {"setup.topology_s", setup.topology_s, "s", ""},
      {"setup.matrix_s", setup.matrix_s, "s", ""},
      {"setup.system_s", setup.system_s, "s", ""},
      {"trace.boundary_ms_p50", Median(boundaries), "ms", ""},
      {"trace.coverage", wall > 0.0 ? covered / wall : 0.0, "ratio", ""},
      {"trace.overhead", reference_p50 > 0.0 ? Median(window_ms) / reference_p50 : 0.0, "ratio",
       ""},
  };
  std::printf("workload %s seed %" PRIu64 ": %zu traced windows (reference p50 %.3f ms, traced "
              "p50 %.3f ms)\n",
              spec.name.c_str(), config.seed, n, reference_p50, Median(window_ms));
  for (const Metric& m : metrics) {
    PrintMetric(m);
  }
  for (const auto& [check, windows_failing] : acc.failures) {
    std::printf("check %s FAILED in %zu window(s)\n", check.c_str(), windows_failing);
  }
  const std::string dump = config.work_dir + "/spans-" + spec.name + "-seed" +
                           std::to_string(config.seed) + ".tsv";
  char header[256];
  std::snprintf(header, sizeof(header), "workload=%s seed=%" PRIu64 " windows=%zu "
                "reference_window_ms_p50=%.6f", spec.name.c_str(), config.seed, n, reference_p50);
  if (spans.WriteTsv(dump, header)) {
    std::printf("spans %s\n", dump.c_str());
  }
  std::printf("suspect_digest %016" PRIx64 "\n", acc.digest.h);
  const bool correct = acc.failed == 0 && n > 0;
  PrintResult(correct, n, acc.failed, metrics);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  detector::Flags flags;
  flags.Describe("workload", "steady-direct | full-planes | churn-replay");
  flags.Describe("seed", "workload seed (default 1)");
  flags.Describe("seconds", "measured seconds of windows (default 10)");
  flags.Describe("trace", "0 = end-to-end metrics, 1 = traced per-layer metrics");
  flags.Describe("work-dir", "scratch directory for window logs and span dumps");
  flags.Describe("smoke", "small topologies, 2 measured windows (self-test)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  RunConfig config;
  config.workload = flags.GetString("workload", "");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.seconds = flags.GetDouble("seconds", 10.0);
  config.smoke = flags.GetBool("smoke", false);
  config.work_dir = flags.GetString("work-dir", "");
  const int trace = static_cast<int>(flags.GetInt("trace", 0));
  WorkloadSpec spec;
  if (!LookupWorkload(config.workload, config.smoke, spec) || config.work_dir.empty() ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "usage: %s --workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "--work-dir=DIR\n", argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  // The workload generator's own copy of the network: schedules are drawn here, before any
  // timing, and only the generated inputs reach the system.
  Schedule schedule;
  {
    const detector::FatTree generator_net(spec.k);
    schedule = BuildSchedule(spec, generator_net.topology(), config.seed,
                             config.smoke ? kSmokeWindows : spec.max_windows);
  }
  return trace == 1 ? RunTraced(config, spec, schedule) : RunEndToEnd(config, spec, schedule);
}
