// Collector-fabric tests (PR 6): the PartitionMap ownership function (exactly-one owner,
// deterministic rebuild after churn, hash fallback for unmapped pingers), wrong-partition
// rejection across a CollectorGroup, sharded ingest equivalence (K shards fold the same
// totals as one), overflow accounting under concurrent bounded Offer/Drain (8 producers:
// folded + dropped == offered, exactly), the pipelined staleness enforcer, and the
// system-level gates — multi-collector barriered windows bit-identical to direct mode, and
// pipelined windows meeting the bounded-staleness contract under injected drop/reorder while
// still converging to the direct-mode result on a lossless wire.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/detector/system.h"
#include "src/net/loopback.h"
#include "src/report/codec.h"
#include "src/report/collector.h"
#include "src/report/collector_group.h"
#include "src/report/partition.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/churn.h"
#include "src/topo/fattree.h"
#include "tests/window_equality.h"

namespace detector {
namespace {

std::vector<uint8_t> EncodedFrame(NodeId pinger, uint64_t window_id, uint64_t seq,
                                  PathId slot, int64_t sent, int64_t lost) {
  ReportFrame frame;
  frame.pinger = pinger;
  frame.window_id = window_id;
  frame.seq = seq;
  frame.paths.push_back(WirePathDelta{slot, 0, /*target=*/pinger + 1000, sent, lost});
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);
  return wire;
}

TEST(PartitionMap, ExactlyOneOwnerAndDeterministicBuild) {
  // Unsorted with duplicates: Build must sort + dedup before dealing.
  const std::vector<NodeId> pingers = {17, 3, 99, 3, 42, 8, 17, 55, 21, 64, 7, 30, 12};
  const PartitionMap map = PartitionMap::Build(pingers, 3);
  EXPECT_EQ(map.num_partitions(), 3u);
  EXPECT_EQ(map.num_pingers(), 11u);  // after dedup

  // Exactly one owner per pinger, and the deal is round-robin over the sorted set — the
  // property that lets any two processes derive the identical map with no coordination.
  std::vector<NodeId> sorted = {3, 7, 8, 12, 17, 21, 30, 42, 55, 64, 99};
  std::vector<size_t> owned(3, 0);
  for (size_t i = 0; i < sorted.size(); ++i) {
    const int p = map.PartitionOf(sorted[i]);
    ASSERT_GE(p, 0) << "pinger " << sorted[i] << " unmapped";
    ASSERT_LT(p, 3);
    EXPECT_EQ(static_cast<size_t>(p), i % 3) << "pinger " << sorted[i];
    EXPECT_EQ(map.RouteOf(sorted[i]), p);
    ++owned[static_cast<size_t>(p)];
  }
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_GT(owned[p], 0u) << "partition " << p << " owns nothing";
  }

  // Same set in any order => the same map (operator== compares the full deal).
  std::vector<NodeId> reversed(sorted.rbegin(), sorted.rend());
  EXPECT_EQ(PartitionMap::Build(reversed, 3), map);

  // Unmapped pingers: PartitionOf says so, RouteOf falls back to the shared hash — still
  // in range, still identical across independently-built maps (agent vs collector side).
  EXPECT_EQ(map.PartitionOf(12345), -1);
  const int fallback = map.RouteOf(12345);
  ASSERT_GE(fallback, 0);
  ASSERT_LT(fallback, 3);
  EXPECT_EQ(PartitionMap::Build(reversed, 3).RouteOf(12345), fallback);

  // N clamps to >= 1 and a single partition owns everything.
  const PartitionMap solo = PartitionMap::Build(sorted, 0);
  EXPECT_EQ(solo.num_partitions(), 1u);
  for (const NodeId p : sorted) {
    EXPECT_EQ(solo.PartitionOf(p), 0);
  }
}

TEST(PartitionMap, RepartitionAfterChurnIsDeterministic) {
  std::vector<NodeId> fleet = {10, 20, 30, 40, 50, 60, 70, 80};
  const PartitionMap before = PartitionMap::Build(fleet, 4);

  // A server dies: rebuild without it. The new deal is a pure function of the surviving
  // set, so every process converges on it independently.
  std::vector<NodeId> survivors = {10, 20, 40, 50, 60, 70, 80};
  const PartitionMap after = PartitionMap::Build(survivors, 4);
  EXPECT_NE(after, before);
  EXPECT_EQ(after.PartitionOf(30), -1);
  std::vector<NodeId> shuffled = {80, 10, 60, 40, 20, 70, 50};
  EXPECT_EQ(PartitionMap::Build(shuffled, 4), after);
  for (size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(after.PartitionOf(survivors[i]), static_cast<int>(i % 4));
  }
}

TEST(CollectorFabric, WrongPartitionFramesRejectedAndCounted) {
  ObservationStore store;
  store.EnsureSlots(4);
  const Topology empty_topo("none");
  Watchdog wd(empty_topo);

  // Pingers {1, 2} dealt over 2 partitions: 1 -> 0, 2 -> 1.
  CollectorGroupOptions options;
  options.num_collectors = 2;
  CollectorGroup group(store, PartitionMap::Build({1, 2}, 2), options);
  group.BeginWindow(1);
  ASSERT_EQ(group.RouteOf(1), 0);
  ASSERT_EQ(group.RouteOf(2), 1);

  // Pinger 2's frame lands on collector 0: rejected-and-counted, nothing folds — the
  // fabric cannot double-count even if an agent misroutes.
  const std::vector<uint8_t> wire = EncodedFrame(2, 1, 0, 0, 100, 10);
  ASSERT_TRUE(group.collector(0).Offer(wire));
  EXPECT_EQ(group.collector(0).Drain(), 0u);
  EXPECT_EQ(group.collector(0).stats().wrong_partition_dropped, 1u);
  EXPECT_EQ(group.collector(0).stats().frames_folded, 0u);
  {
    const ObservationView totals = store.RunningTotals(4, wd);
    EXPECT_EQ(totals[0].sent, 0);
    EXPECT_EQ(totals[0].lost, 0);
  }

  // The same frame on its rightful owner folds normally — the misroute burned nothing.
  ASSERT_TRUE(group.collector(1).Offer(wire));
  EXPECT_EQ(group.collector(1).Drain(), 1u);
  const CollectorStats rolled = group.stats();
  EXPECT_EQ(rolled.frames_folded, 1u);
  EXPECT_EQ(rolled.wrong_partition_dropped, 1u);
  const ObservationView totals = store.RunningTotals(4, wd);
  EXPECT_EQ(totals[0].sent, 100);
  EXPECT_EQ(totals[0].lost, 10);

  // An unmapped (mid-window-born) pinger routes by the hash fallback: folds there, is
  // rejected everywhere else.
  const NodeId born = 777;
  const int owner = group.RouteOf(born);
  const int other = 1 - owner;
  const std::vector<uint8_t> born_wire = EncodedFrame(born, 1, 0, 1, 30, 3);
  ASSERT_TRUE(group.collector(static_cast<size_t>(other)).Offer(born_wire));
  group.collector(static_cast<size_t>(other)).Drain();
  ASSERT_TRUE(group.collector(static_cast<size_t>(owner)).Offer(born_wire));
  group.collector(static_cast<size_t>(owner)).Drain();
  EXPECT_EQ(group.stats().wrong_partition_dropped, 2u);
  EXPECT_EQ(group.stats().frames_folded, 2u);
}

TEST(Collector, ShardedIngestFoldsIdenticalTotals) {
  const Topology empty_topo("none");
  Watchdog wd(empty_topo);
  // 12 pingers x 3 frames, slots spread over 8; fold through 1 and 4 ingest shards.
  std::vector<std::vector<uint8_t>> frames;
  for (NodeId pinger = 100; pinger < 112; ++pinger) {
    for (uint64_t seq = 0; seq < 3; ++seq) {
      frames.push_back(EncodedFrame(pinger, 1, seq, static_cast<PathId>(pinger % 8),
                                    10 + static_cast<int64_t>(seq),
                                    static_cast<int64_t>(seq)));
    }
  }

  auto fold = [&](size_t shards, CollectorStats* stats) {
    ObservationStore store;
    store.EnsureSlots(8);
    Collector collector(store, CollectorOptions{.ingest_shards = shards});
    EXPECT_EQ(collector.num_ingest_shards(), shards);
    collector.BeginWindow(1);
    for (const auto& wire : frames) {
      EXPECT_TRUE(collector.Offer(wire));
    }
    // Drain shard-by-shard, the way concurrent pool tasks would split the work.
    size_t folded = 0;
    for (size_t s = 0; s < shards; ++s) {
      folded += collector.DrainShardRange(s, s + 1);
    }
    EXPECT_EQ(folded, frames.size());
    EXPECT_EQ(collector.queued(), 0u);
    *stats = collector.stats();
    const ObservationView view = store.RunningTotals(8, wd);
    return Observations(view.begin(), view.end());
  };

  CollectorStats serial_stats;
  CollectorStats sharded_stats;
  const Observations serial = fold(1, &serial_stats);
  const Observations sharded = fold(4, &sharded_stats);
  EXPECT_EQ(serial_stats.frames_folded, sharded_stats.frames_folded);
  EXPECT_EQ(serial_stats.observations_folded, sharded_stats.observations_folded);
  ASSERT_EQ(serial.size(), sharded.size());
  for (size_t slot = 0; slot < serial.size(); ++slot) {
    EXPECT_EQ(serial[slot].sent, sharded[slot].sent) << "slot " << slot;
    EXPECT_EQ(serial[slot].lost, sharded[slot].lost) << "slot " << slot;
  }
}

// Satellite gate: 8 producer threads hammer bounded shard queues while 4 drainers fold
// concurrently. Every Offer is accounted exactly once under the shard lock, so
// folded + overflow-dropped == offered holds to the frame, and the store's global totals
// equal 10/1 per folded frame — no lost, double-counted, or phantom folds.
TEST(Collector, ConcurrentOfferDrainAccounting) {
  const Topology empty_topo("none");
  Watchdog wd(empty_topo);
  ObservationStore store;
  store.EnsureSlots(8);
  Collector collector(store,
                      CollectorOptions{.queue_capacity = 4, .ingest_shards = 4});
  collector.BeginWindow(1);

  constexpr size_t kProducers = 8;
  constexpr size_t kFramesPerProducer = 400;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> accepted{0};

  std::vector<std::thread> drainers;
  for (size_t s = 0; s < 4; ++s) {
    drainers.emplace_back([&, s] {
      while (!done.load(std::memory_order_acquire)) {
        collector.DrainShardRange(s, s + 1);
        std::this_thread::yield();
      }
      collector.DrainShardRange(s, s + 1);  // sweep what landed after the last pass
    });
  }
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const NodeId pinger = static_cast<NodeId>(200 + p);
      uint64_t ok = 0;
      for (uint64_t seq = 0; seq < kFramesPerProducer; ++seq) {
        if (collector.Offer(
                EncodedFrame(pinger, 1, seq, static_cast<PathId>(p), 10, 1))) {
          ++ok;
        }
      }
      accepted.fetch_add(ok, std::memory_order_acq_rel);
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : drainers) {
    t.join();
  }

  EXPECT_EQ(collector.queued(), 0u);
  const CollectorStats stats = collector.stats();
  const uint64_t offered = kProducers * kFramesPerProducer;
  EXPECT_EQ(stats.frames_folded + stats.queue_overflow_dropped, offered);
  EXPECT_EQ(stats.frames_folded, accepted.load());
  EXPECT_GT(stats.frames_folded, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.observations_folded, stats.frames_folded);  // one record per frame

  const ObservationView totals = store.RunningTotals(8, wd);
  int64_t sent = 0;
  int64_t lost = 0;
  for (const PathObservation& obs : totals) {
    sent += obs.sent;
    lost += obs.lost;
  }
  EXPECT_EQ(sent, static_cast<int64_t>(stats.frames_folded) * 10);
  EXPECT_EQ(lost, static_cast<int64_t>(stats.frames_folded));
}

TEST(Collector, DrainStaleEnforcesDepthBound) {
  const Topology empty_topo("none");
  Watchdog wd(empty_topo);
  ObservationStore store;
  store.EnsureSlots(2);
  Collector collector(store);
  collector.BeginWindow(1);

  // Frame A arrives at boundary 0, frame B at boundary 1; the budgeted pump never gets to
  // them. With depth 2, the enforcer must fold A exactly when its age hits 2, then B.
  collector.Offer(EncodedFrame(1, 1, 0, 0, 10, 1));
  collector.AdvanceBoundary();
  collector.Offer(EncodedFrame(1, 1, 1, 0, 10, 1));
  collector.AdvanceBoundary();
  ASSERT_EQ(collector.boundary(), 2u);

  constexpr uint64_t kDepth = 2;
  EXPECT_EQ(collector.DrainStale(collector.boundary() - kDepth + 1), 1u);  // A only
  EXPECT_EQ(collector.queued(), 1u);
  EXPECT_EQ(collector.stats().frames_straddled, 1u);
  EXPECT_EQ(collector.stats().max_fold_staleness, kDepth);

  collector.AdvanceBoundary();
  EXPECT_EQ(collector.DrainStale(collector.boundary() - kDepth + 1), 1u);  // now B
  EXPECT_EQ(collector.queued(), 0u);
  EXPECT_EQ(collector.stats().frames_straddled, 2u);
  EXPECT_EQ(collector.stats().max_fold_staleness, kDepth) << "enforcer let a fold age past depth";
}

DetectorSystemOptions FabricTestOptions(double pps) {
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = pps;
  options.segments_per_window = 6;
  options.diagnose_every_segments = 2;
  return options;
}

std::vector<ChurnEvent> FabricChurn(const FatTree& ft) {
  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{8.0, TopologyDelta::LinkDown(ft.AggCoreLink(1, 0, 1))});
  churn.push_back(ChurnEvent{14.0, TopologyDelta::NodeDown(ft.Server(2, 0, 1))});
  churn.push_back(ChurnEvent{23.0, TopologyDelta::LinkUp(ft.AggCoreLink(1, 0, 1))});
  return churn;
}

// The fabric acceptance gate: N collectors x K ingest shards in the default barriered mode
// stay bit-identical to direct mode — totals, verdicts, alarms, traffic — through mid-window
// churn (which forces a repartition at the next window open: the dead server's pinglist is
// gone) and across probe thread counts.
TEST(CollectorFabric, BarrieredWindowsBitIdenticalToDirect) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 1, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.08;
  scenario.failures.push_back(f);
  const std::vector<ChurnEvent> churn = FabricChurn(ft);

  for (const size_t collectors : {size_t{2}, size_t{4}}) {
    for (const size_t threads : {size_t{1}, size_t{2}}) {
      auto run = [&](bool report_plane) {
        DetectorSystemOptions options = FabricTestOptions(150);
        options.probe_threads = threads;
        options.report_plane = report_plane;
        options.report_collectors = collectors;
        options.report_ingest_shards = 2;
        DetectorSystem system(routing, options);
        Rng rng(99);
        std::vector<DetectorSystem::StreamingWindowResult> out;
        out.push_back(system.RunWindowStreaming(scenario, churn, rng));
        out.push_back(system.RunWindowStreaming(scenario, {}, rng));
        const CollectorGroup* group = system.collector_group();
        EXPECT_EQ(group != nullptr, report_plane);
        if (report_plane && group != nullptr) {
          EXPECT_EQ(group->num_collectors(), collectors);
          const CollectorStats stats = group->stats();
          EXPECT_GT(stats.frames_folded, 0u);
          EXPECT_EQ(stats.wrong_partition_dropped, 0u)
              << "emitters and collectors disagree on the partition map";
          EXPECT_EQ(stats.decode_errors, 0u);
          EXPECT_EQ(stats.duplicates_dropped, 0u);
          // Every partition carried traffic: the fabric actually spread the fleet.
          for (size_t c = 0; c < collectors; ++c) {
            EXPECT_GT(group->collector(c).stats().frames_folded, 0u)
                << "collector " << c << " folded nothing";
          }
        }
        return out;
      };
      const auto direct = run(false);
      const auto report = run(true);
      ASSERT_EQ(direct.size(), report.size());
      for (size_t w = 0; w < direct.size(); ++w) {
        const std::string when = "collectors=" + std::to_string(collectors) +
                                 " threads=" + std::to_string(threads) +
                                 " window=" + std::to_string(w);
        ExpectIdenticalWindows(direct[w].window, report[w].window, when);
        ASSERT_EQ(direct[w].timeline.size(), report[w].timeline.size()) << when;
        for (size_t i = 0; i < direct[w].timeline.size(); ++i) {
          ExpectIdenticalLocalizations(direct[w].timeline[i].localization,
                                       report[w].timeline[i].localization,
                                       when + " boundary " + std::to_string(i));
        }
      }
    }
  }
}

// Pipelined mode's contract under a faulty wire: frames straddle boundaries (that is the
// point), but every fold lands within report_pipeline_depth boundaries of arrival, frames
// never corrupt, and a hard failure is still localized.
TEST(CollectorFabric, PipelinedBoundedStalenessUnderDropAndReorder) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(0, 0, 0);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);

  // Folds happen only at the segment-end barrier, never concurrently with probing, so the
  // whole timeline — mid-window boundaries included — is the same at every thread count.
  DetectorSystem::StreamingWindowResult reference;
  for (const size_t threads : {1u, 2u, 8u}) {
    const std::string when = "threads=" + std::to_string(threads);
    DetectorSystemOptions options = FabricTestOptions(120);
    options.probe_threads = threads;
    options.report_plane = true;
    options.report_collectors = 2;
    options.report_ingest_shards = 2;
    options.report_pipeline = true;
    options.report_pipeline_depth = 2;
    options.report_pump_budget = 1;  // starve the pump so the enforcer has to do the work
    DetectorSystem system(routing, options);
    system.SetReportTransportFactory([](size_t i) {
      LoopbackOptions loopback;
      loopback.drop_rate = 0.15;
      loopback.reorder_rate = 0.4;
      loopback.seed = 31 + i;
      return std::make_unique<LoopbackTransport>(loopback);
    });
    Rng rng(5);
    const auto result = system.RunWindowStreaming(scenario, {}, rng);

    const CollectorStats stats = system.collector_group()->stats();
    EXPECT_GT(stats.frames_folded, 0u) << when;
    EXPECT_GT(stats.frames_straddled, 0u) << when << ": budget 1 never deferred a fold";
    EXPECT_GT(stats.max_fold_staleness, 0u) << when;
    EXPECT_LE(stats.max_fold_staleness,
              static_cast<uint64_t>(options.report_pipeline_depth))
        << when << ": bounded-staleness contract broken";
    EXPECT_EQ(stats.decode_errors, 0u) << when;
    EXPECT_EQ(stats.duplicates_dropped, 0u) << when;

    bool found = false;
    for (const SuspectLink& s : result.window.localization.links) {
      found |= s.link == f.link;
    }
    EXPECT_TRUE(found) << when << ": full-loss failure lost in the pipelined report plane";

    if (threads == 1) {
      reference = result;
      continue;
    }
    ExpectIdenticalWindows(reference.window, result.window, when);
    ASSERT_EQ(result.timeline.size(), reference.timeline.size()) << when;
    for (size_t t = 0; t < result.timeline.size(); ++t) {
      EXPECT_EQ(result.timeline[t].localization.links,
                reference.timeline[t].localization.links)
          << when << " boundary " << t;
      EXPECT_EQ(result.timeline[t].server_link_alarms,
                reference.timeline[t].server_link_alarms)
          << when << " boundary " << t;
    }
  }
}

// On a lossless wire the pipelined window end must converge to exactly the direct-mode
// result: the deferred folds all land (epoch stamps place late folds where on-time folds
// would have), the final drain leaves nothing queued, and the window-end diagnosis is
// bit-identical — only mid-window boundaries may see totals later than barriered mode would.
TEST(CollectorFabric, PipelinedLosslessWindowEndMatchesDirect) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 1, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.08;
  scenario.failures.push_back(f);
  const std::vector<ChurnEvent> churn = FabricChurn(ft);

  auto run = [&](bool report_plane, bool pipeline) {
    DetectorSystemOptions options = FabricTestOptions(150);
    options.probe_threads = 1;
    options.report_plane = report_plane;
    options.report_collectors = 2;
    options.report_ingest_shards = 2;
    options.report_pipeline = pipeline;
    options.report_pipeline_depth = 2;
    options.report_pump_budget = 1;
    DetectorSystem system(routing, options);
    Rng rng(99);
    std::vector<DetectorSystem::WindowResult> out;
    out.push_back(system.RunWindowStreaming(scenario, churn, rng).window);
    out.push_back(system.RunWindowStreaming(scenario, {}, rng).window);
    if (report_plane) {
      const CollectorStats stats = system.collector_group()->stats();
      EXPECT_EQ(stats.decode_errors, 0u);
      EXPECT_EQ(stats.duplicates_dropped, 0u);
      EXPECT_EQ(system.collector_group()->queued(), 0u) << "window-end drain left a backlog";
      if (pipeline) {
        EXPECT_GT(stats.frames_straddled, 0u) << "pipelined run never straddled a boundary";
      }
    }
    return out;
  };

  const auto direct = run(false, false);
  const auto pipelined = run(true, true);
  ASSERT_EQ(direct.size(), pipelined.size());
  for (size_t w = 0; w < direct.size(); ++w) {
    ExpectIdenticalWindows(direct[w], pipelined[w],
                           "pipelined lossless window " + std::to_string(w));
  }
}

}  // namespace
}  // namespace detector
