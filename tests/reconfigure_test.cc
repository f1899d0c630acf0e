// DetectorSystem::Reconfigure tests: a window run after Reconfigure equals the first window of
// a system built with the same options on the same seed (across probe, slicing, report-plane,
// hardening, pipelining and history edits); options are clamped on both the constructor and
// the Reconfigure path; a history_* change reopens the window log under the new settings; and
// constructor-only options cannot change.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "src/detector/system.h"
#include "src/history/window_log.h"
#include "src/history/window_sink.h"
#include "src/routing/fattree_routing.h"
#include "src/topo/fattree.h"
#include "tests/window_equality.h"

namespace detector {
namespace {

namespace fs = std::filesystem;

// Fresh empty directory under the system temp dir, unique per call within the process.
std::string TempLogDir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::temp_directory_path() /
                       ("detector_reconfigure_" + tag + "_" + std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

class CapturingSink final : public WindowSink {
 public:
  void OnWindowSealed(const SealedWindow& window) override { windows.push_back(window); }
  std::vector<SealedWindow> windows;
};

DetectorSystemOptions BaseOptions() {
  DetectorSystemOptions options;
  options.pmc.alpha = 2;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 80;
  options.probe_threads = 1;
  return options;
}

FailureScenario LossyScenario(const FatTree& ft) {
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(1, 0, 1);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.05;
  scenario.failures.push_back(f);
  return scenario;
}

// Everything a window publishes apart from its sealed-window index, which counts the windows
// a system has sealed so far and so differs between a long-running and a fresh system.
SealedWindow WithoutIndex(SealedWindow window) {
  window.window_index = 0;
  return window;
}

// Each edit applies on top of the previous ones. After every Reconfigure the long-running
// system's next window must equal the first window of a system built from scratch with the
// same options, run on the same seed: nothing Reconfigure should have dropped survives.
TEST(Reconfigure, NextWindowMatchesFreshSystemAfterEachEdit) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  const FailureScenario scenario = LossyScenario(ft);
  const std::string live_log = TempLogDir("live");
  const std::string fresh_log = TempLogDir("fresh");

  struct Edit {
    std::string name;
    std::function<void(DetectorSystemOptions&)> apply;
  };
  const std::vector<Edit> edits = {
      {"probe threads 1 -> 2", [](DetectorSystemOptions& o) { o.probe_threads = 2; }},
      {"sub-shards 0 -> 2", [](DetectorSystemOptions& o) { o.probe_subshards = 2; }},
      {"6 segments, cadence 2",
       [](DetectorSystemOptions& o) {
         o.segments_per_window = 6;
         o.diagnose_every_segments = 2;
       }},
      {"report plane, 2 collectors x 2 ingest shards",
       [](DetectorSystemOptions& o) {
         o.report_plane = true;
         o.report_collectors = 2;
         o.report_ingest_shards = 2;
       }},
      {"new report key and liveness horizon",
       [](DetectorSystemOptions& o) {
         o.report_key = ReportKey{0x1111222233334444ULL, 0x5555666677778888ULL};
         o.report_liveness_horizon = 3;
       }},
      {"pipelined at depth 2, budget 1",
       [](DetectorSystemOptions& o) {
         o.report_pipeline = true;
         o.report_pipeline_depth = 2;
         o.report_pump_budget = 1;
       }},
      {"history dir set", [&](DetectorSystemOptions& o) { o.history_dir = live_log; }},
  };

  DetectorSystemOptions options = BaseOptions();
  DetectorSystem live(routing, options);
  CapturingSink live_sink;
  live.set_history_sink(&live_sink);
  Rng warmup(7);
  live.RunWindowStreaming(scenario, {}, warmup);

  for (const Edit& edit : edits) {
    edit.apply(options);
    live.Reconfigure(options);
    Rng live_rng(42);
    const auto got = live.RunWindowStreaming(scenario, {}, live_rng);

    DetectorSystemOptions fresh_options = options;
    if (!fresh_options.history_dir.empty()) {
      fresh_options.history_dir = fresh_log;  // the same settings, its own directory
    }
    DetectorSystem fresh(routing, fresh_options);
    CapturingSink fresh_sink;
    fresh.set_history_sink(&fresh_sink);
    Rng fresh_rng(42);
    const auto want = fresh.RunWindowStreaming(scenario, {}, fresh_rng);

    ExpectIdenticalWindows(want.window, got.window, edit.name);
    EXPECT_GT(got.window.probes_sent, 0) << edit.name;
    ASSERT_EQ(got.timeline.size(), want.timeline.size()) << edit.name;
    for (size_t t = 0; t < got.timeline.size(); ++t) {
      EXPECT_EQ(got.timeline[t].time_seconds, want.timeline[t].time_seconds) << edit.name;
      EXPECT_EQ(got.timeline[t].localization.links, want.timeline[t].localization.links)
          << edit.name << " boundary " << t;
      EXPECT_EQ(got.timeline[t].server_link_alarms, want.timeline[t].server_link_alarms)
          << edit.name << " boundary " << t;
    }
    ASSERT_EQ(fresh_sink.windows.size(), 1u) << edit.name;
    EXPECT_EQ(WithoutIndex(live_sink.windows.back()), WithoutIndex(fresh_sink.windows.back()))
        << edit.name;
  }

  // The last edit opened the log: it holds exactly the window run after it, as the fresh
  // system's log does.
  ASSERT_NE(live.history_log(), nullptr);
  const WindowLogReadResult live_read = ReadWindowLog(live_log, options.report_key);
  const WindowLogReadResult fresh_read = ReadWindowLog(fresh_log, options.report_key);
  ASSERT_EQ(live_read.windows.size(), 1u);
  ASSERT_EQ(fresh_read.windows.size(), 1u);
  EXPECT_EQ(live_read.windows[0], live_sink.windows.back());
  EXPECT_EQ(WithoutIndex(live_read.windows[0]), WithoutIndex(fresh_read.windows[0]));
}

// A pipeline depth below 1 clamps to 1 whichever way it arrives. Unclamped, the staleness
// enforcer's depth wraps to 2^64 - 1 and never fires, so a starved pump lets frames straddle
// every boundary of the window.
TEST(Reconfigure, NegativePipelineDepthClampsOnBothPaths) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  const FailureScenario scenario = LossyScenario(ft);
  DetectorSystemOptions options = BaseOptions();
  options.segments_per_window = 6;
  options.report_plane = true;
  options.report_pipeline = true;
  options.report_pump_budget = 1;
  options.report_pipeline_depth = -1;

  for (const bool via_reconfigure : {false, true}) {
    const std::string when = via_reconfigure ? "Reconfigure" : "constructor";
    DetectorSystem system(routing, via_reconfigure ? BaseOptions() : options);
    if (via_reconfigure) {
      system.Reconfigure(options);
    }
    EXPECT_EQ(system.options().report_pipeline_depth, 1) << when;
    Rng rng(5);
    system.RunWindowStreaming(scenario, {}, rng);
    const CollectorStats stats = system.collector_group()->stats();
    EXPECT_GT(stats.frames_straddled, 0u) << when << ": budget 1 never deferred a fold";
    EXPECT_LE(stats.max_fold_staleness, 1u) << when;
  }
}

// history_segment_records changed between windows reopens the log with the new rotation
// count: the segment written before keeps its records, and each later window starts a new
// segment file once the count is 1.
TEST(Reconfigure, HistorySegmentRecordsRotatesAtTheNewCount) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  const std::string dir = TempLogDir("rotation");
  DetectorSystemOptions options = BaseOptions();
  options.history_dir = dir;
  options.history_segment_records = 4;
  DetectorSystem system(routing, options);
  Rng rng(3);
  for (int w = 0; w < 2; ++w) {
    system.RunWindow(FailureScenario{}, rng);
  }
  options.history_segment_records = 1;
  system.Reconfigure(options);
  for (int w = 0; w < 3; ++w) {
    system.RunWindow(FailureScenario{}, rng);
  }

  size_t segment_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segment_files;
  }
  // One file for windows 0-1 (under the old count of 4), then one per window.
  EXPECT_EQ(segment_files, 4u);
  const WindowLogReadResult read = ReadWindowLog(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  ASSERT_EQ(read.windows.size(), 5u);
  for (size_t i = 0; i < read.windows.size(); ++i) {
    EXPECT_EQ(read.windows[i].window_index, i);
  }
}

// The constructor alone reads pll (it builds the diagnoser's localizer): changing it later
// must fail loudly rather than be ignored.
TEST(ReconfigureDeathTest, ChangingPllDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options = BaseOptions();
  DetectorSystem system(routing, options);
  options.pll.hit_ratio_threshold = 0.5;
  EXPECT_DEATH(system.Reconfigure(options), "constructor-only");
}

}  // namespace
}  // namespace detector
