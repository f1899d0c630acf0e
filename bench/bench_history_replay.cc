// History / replay benchmark (PR 9): prices the retention seam and gates its contracts.
//
//  (1) log-write overhead — identical streaming-window runs with and without a WindowLog
//      attached (same seed, same probing trajectory); the logged run must stay within 5% of
//      the bare run (enforced gate: sealing + encoding + appending rides the window path);
//  (2) replay-vs-live identity — replaying the logged range through QueryEngine with the live
//      PllOptions must reproduce the live run's suspect sets bit-identically at every
//      diagnosis boundary (enforced gate, exit 2 on divergence);
//  (3) recorded-trace input mode — replay throughput vs re-simulating the windows: a replayed
//      diagnosis timeline costs no probing, so perf work on thresholds/views iterates on the
//      recording instead of the simulator;
//  (4) what-if replay — the same log re-diagnosed at an altered hit-ratio threshold, plus the
//      query plane (top links / episodes) over the log, exercised end to end.
//
// Flags: --k=10 --windows=3 --pps=150 --segments=6 --diagnose-every=2 --repeat=5
//        --log-dir=out/bench_history_log --segment-records=256 --altered-threshold=0.3
//        --seed=1 --json=FILE
//
// Default scale note: the overhead gate divides ~tens of microseconds of sealing + append
// work by the window-path time, so the timed run must be big enough to measure against. A
// k=10 window takes under a millisecond, and 3 of them put the ratio at timer and syscall
// noise (a 5% gate failed about 1 run in 3 that way), so a timed run covers at least
// --windows windows and at least kMinTimedSeconds of bare window time, sized once by a
// calibration run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/detector/system.h"
#include "src/history/query.h"
#include "src/history/window_log.h"
#include "src/routing/fattree_routing.h"
#include "src/topo/fattree.h"

int main(int argc, char** argv) {
  using namespace detector;
  Flags flags;
  flags.Describe("k", "fat-tree arity (default 10)");
  flags.Describe("windows", "streaming windows per run (default 3)");
  flags.Describe("pps", "probe packets per second per pinger (default 150)");
  flags.Describe("segments", "probe slices per window (default 6)");
  flags.Describe("diagnose-every", "streaming diagnosis cadence in segments (default 2)");
  flags.Describe("repeat", "timing repetitions, best-of (default 5)");
  flags.Describe("log-dir", "window-log directory (default out/bench_history_log; wiped)");
  flags.Describe("segment-records", "window-log records per segment file (default 256)");
  flags.Describe("altered-threshold", "hit-ratio threshold for the what-if replay (default 0.3)");
  flags.Describe("seed", "rng seed (default 1)");
  bench::JsonWriter::DescribeFlag(flags);
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  const int k = static_cast<int>(flags.GetInt("k", 10));
  const int windows = std::max(1, static_cast<int>(flags.GetInt("windows", 3)));
  const double pps = static_cast<double>(flags.GetInt("pps", 150));
  const int segments = std::max(1, static_cast<int>(flags.GetInt("segments", 6)));
  const int cadence = std::max(1, static_cast<int>(flags.GetInt("diagnose-every", 2)));
  const int repeat = std::max(1, static_cast<int>(flags.GetInt("repeat", 5)));
  constexpr double kMinTimedSeconds = 0.2;
  const std::string log_dir = flags.GetString("log-dir", "out/bench_history_log");
  const size_t segment_records =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("segment-records", 256)));
  const double altered_threshold = flags.GetDouble("altered-threshold", 0.3);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  bench::JsonWriter json(flags, "history_replay");

  bench::PrintHeader(
      "History plane: window-log overhead, replay identity, recorded-trace throughput",
      "Streaming windows seal into an append-only WindowLog (per-boundary observation deltas\n"
      "+ diagnosis timeline); QueryEngine replays the log through a fresh non-consuming\n"
      "Diagnoser. Gates: logging adds < 5% to the window path, and the cumulative replay\n"
      "reproduces the live suspect sets bit-identically at every diagnosis boundary.");

  const FatTree ft(k);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(0, 0, 0);
  f.type = FailureType::kDeterministicPartial;
  f.match_fraction = 0.5;
  f.rule_seed = 77;
  scenario.failures.push_back(f);

  auto base_options = [&] {
    DetectorSystemOptions options;
    options.pmc.alpha = 1;
    options.pmc.beta = 1;
    options.controller.packets_per_second = pps;
    options.segments_per_window = segments;
    options.diagnose_every_segments = cadence;
    options.probe_threads = 1;
    return options;
  };

  // One pass: a bare and a logged system side by side on the same seed, so both execute the
  // identical probing trajectory. Each takes a warmup window (the logged one pays one-time
  // setup — log directory creation, segment open — outside the timer), then `count` timed
  // windows alternate between the two, each window timed on its own: host drift (co-tenant
  // bursts) lands on both sums alike instead of on whichever run it overlapped. The logged
  // system's windows, warmup included, are returned for the identity check.
  auto run_pair = [&](int count, double& bare_out, double& logged_out) {
    DetectorSystemOptions logged_options = base_options();
    logged_options.history_dir = log_dir;
    logged_options.history_segment_records = segment_records;
    DetectorSystem bare(routing, base_options());
    DetectorSystem logged(routing, logged_options);
    Rng bare_rng(seed + 7);
    Rng logged_rng(seed + 7);
    std::vector<DetectorSystem::StreamingWindowResult> out;
    bare.RunWindowStreaming(scenario, {}, bare_rng);
    out.push_back(logged.RunWindowStreaming(scenario, {}, logged_rng));
    bare_out = 0.0;
    logged_out = 0.0;
    for (int w = 0; w < count; ++w) {
      WallTimer bare_timer;
      bare.RunWindowStreaming(scenario, {}, bare_rng);
      bare_out += bare_timer.ElapsedSeconds();
      WallTimer logged_timer;
      out.push_back(logged.RunWindowStreaming(scenario, {}, logged_rng));
      logged_out += logged_timer.ElapsedSeconds();
    }
    return out;
  };

  // ---- (1) log-write overhead on the streaming window path ------------------------------
  int timed_windows = windows;
  {
    double bare;
    double logged;
    std::filesystem::remove_all(log_dir);
    run_pair(windows, bare, logged);
    if (bare > 0.0 && bare < kMinTimedSeconds) {
      timed_windows =
          std::min(1000, static_cast<int>(std::ceil(kMinTimedSeconds / bare * windows)));
    }
  }
  double bare_s = 1e100;
  double logged_s = 1e100;
  std::vector<DetectorSystem::StreamingWindowResult> live;
  for (int r = 0; r < repeat; ++r) {
    double bare;
    double logged;
    std::filesystem::remove_all(log_dir);  // each repeat writes a fresh log
    live = run_pair(timed_windows, bare, logged);
    bare_s = std::min(bare_s, bare);
    logged_s = std::min(logged_s, logged);
  }
  const double overhead_pct = bare_s <= 0.0 ? 0.0 : (logged_s - bare_s) / bare_s * 100.0;

  const WindowLogReadResult log_read = ReadWindowLog(log_dir);
  uint64_t log_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(log_dir)) {
    log_bytes += std::filesystem::file_size(entry.path());
  }
  TablePrinter overhead_table({"run", "windows", "best s", "log records", "log bytes"});
  overhead_table.AddRow({"bare", TablePrinter::FmtInt(timed_windows), TablePrinter::Fmt(bare_s, 4),
                         "-", "-"});
  overhead_table.AddRow({"logged", TablePrinter::FmtInt(timed_windows),
                         TablePrinter::Fmt(logged_s, 4),
                         TablePrinter::FmtInt(static_cast<int64_t>(log_read.windows.size())),
                         TablePrinter::FmtInt(static_cast<int64_t>(log_bytes))});
  overhead_table.Print();
  std::printf("log-write overhead: %.2f%% (gate: < 5%%)\n\n", overhead_pct);

  // ---- (2) replay-vs-live bit-identity at every diagnosis boundary ----------------------
  // Replay rebuilds the probe matrix the same deterministic way the live system did.
  const DetectorSystem matrix_system(routing, base_options());
  const ProbeMatrix& matrix = matrix_system.probe_matrix();
  QueryEngine engine = QueryEngine::FromDir(log_dir);
  bool identity = engine.ok() && engine.read_result().clean &&
                  engine.num_windows() == live.size();
  ReplayOptions live_replay;
  live_replay.pll = base_options().pll;
  double replay_s = 1e100;
  std::vector<ReplayedWindow> replayed;
  for (int r = 0; r < repeat; ++r) {
    WallTimer timer;
    replayed = engine.Replay(ft.topology(), matrix, live_replay);
    replay_s = std::min(replay_s, timer.ElapsedSeconds());
  }
  size_t boundaries_checked = 0;
  for (size_t w = 0; identity && w < replayed.size(); ++w) {
    const auto& timeline = live[w].timeline;
    identity = replayed[w].boundaries.size() == timeline.size();
    for (size_t b = 0; identity && b < timeline.size(); ++b) {
      identity = replayed[w].boundaries[b].localization.links ==
                 timeline[b].localization.links;
      ++boundaries_checked;
    }
  }
  std::printf("replay identity: %s across %zu diagnosis boundaries in %zu windows\n",
              identity ? "bit-identical" : "DIVERGED", boundaries_checked, replayed.size());

  // ---- (3) recorded-trace input mode: replay throughput vs re-simulation ----------------
  const double live_per_window = bare_s / timed_windows;
  const double replay_per_window = replay_s / static_cast<double>(live.size());
  const double replay_speedup =
      replay_per_window > 0.0 ? live_per_window / replay_per_window : 0.0;
  std::printf("recorded-trace mode: %.2f ms/window replayed vs %.2f ms/window simulated "
              "(%.0fx)\n\n",
              replay_per_window * 1e3, live_per_window * 1e3, replay_speedup);

  // ---- (4) what-if replay + query plane over the log ------------------------------------
  ReplayOptions altered = live_replay;
  altered.pll.hit_ratio_threshold = altered_threshold;
  const std::vector<ReplayedWindow> what_if = engine.Replay(ft.topology(), matrix, altered);
  size_t live_final_suspects = 0;
  size_t altered_final_suspects = 0;
  for (size_t w = 0; w < what_if.size(); ++w) {
    if (!what_if[w].boundaries.empty()) {
      altered_final_suspects += what_if[w].boundaries.back().localization.links.size();
    }
    if (!live[w].timeline.empty()) {
      live_final_suspects += live[w].timeline.back().localization.links.size();
    }
  }
  std::printf("what-if replay at hit-ratio %.2f: %zu window-end suspects vs %zu live\n",
              altered_threshold, altered_final_suspects, live_final_suspects);
  const auto top = engine.TopLinks();
  for (size_t i = 0; i < top.size() && i < 3; ++i) {
    const auto episodes = engine.LinkEpisodes(top[i].link);
    std::printf("  top link %s: suspected in %zu/%zu logged windows, %zu episode(s), "
                "max est %.3f\n",
                ft.topology().LinkName(top[i].link).c_str(), top[i].windows_suspected,
                engine.num_windows(), episodes.size(), top[i].max_estimated_loss_rate);
  }
  std::printf("\n");

  json.Metric("windows", timed_windows);
  json.Metric("bare_s", bare_s);
  json.Metric("logged_s", logged_s);
  json.Metric("overhead_pct", overhead_pct);
  json.Metric("log_bytes", static_cast<double>(log_bytes));
  json.Metric("replay_ms_per_window", replay_per_window * 1e3);
  json.Metric("replay_speedup_x", replay_speedup);
  json.Metric("boundaries_checked", static_cast<double>(boundaries_checked));
  const bool overhead_pass = overhead_pct < 5.0;
  json.Gate("replay_identity", identity ? 1.0 : 0.0, 1.0, /*enforced=*/true, identity);
  json.Gate("log_overhead_pct", overhead_pct, 5.0, /*enforced=*/true, overhead_pass);
  json.Write();

  if (!identity) {
    std::printf("FAIL: replayed suspect sets diverge from the live run\n");
    return 2;
  }
  if (!overhead_pass) {
    std::printf("FAIL: log-write overhead %.2f%% exceeds 5%%\n", overhead_pct);
    return 2;
  }
  std::printf("history gates: PASS (identity at %zu boundaries, overhead %.2f%% < 5%%)\n",
              boundaries_checked, overhead_pct);
  return 0;
}
