#include "src/detector/pinger.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace detector {

namespace {

// Intra-rack entries towards a watchdog-flagged server are skipped at execution time. Server
// churn dispatched through UpdatePinglists removes such entries from the standing pinglists
// outright (diffs key them by (path, target)); this probe-time skip is defense-in-depth for
// servers flagged outside the delta flow (e.g. a watchdog MarkDown with no topology delta) —
// probing a downed server only burns budget and records counters the diagnoser would discard
// anyway. Matrix entries are not filtered here — server churn re-dispatches them off downed
// endpoints through UpdatePinglists.
bool EntryEligible(const PinglistEntry& entry, const Watchdog* watchdog) {
  return entry.path_id != PinglistEntry::kIntraRackPath || watchdog == nullptr ||
         watchdog->IsHealthy(entry.target_server);
}

// Entry i's stream, keyed by the list seed and the entry's index alone: an entry draws the
// same probes whichever range or task runs it.
Rng EntryRng(uint64_t list_seed, size_t index) {
  return Rng(HashCombine(list_seed, static_cast<uint64_t>(index)));
}

// RunEntries sink that buffers PathReports.
auto AppendTo(std::vector<PathReport>& out) {
  return [&out](PathId path_id, NodeId target, int64_t sent, int64_t lost, RttSketch* rtt) {
    out.push_back(
        PathReport{path_id, target, sent, lost, rtt != nullptr ? std::move(*rtt) : RttSketch{}});
  };
}

}  // namespace

void ReportSink::OnEntry(PathId path_id, NodeId target, int64_t sent, int64_t lost,
                         RttSketch* rtt) {
  if (path_id == PinglistEntry::kIntraRackPath) {
    OnIntraRack(target, sent, lost);
  } else if (path_id >= 0) {
    OnPath(path_id, target, sent, lost);
    if (rtt != nullptr) {
      OnPathRtt(path_id, target, *rtt);
    }
  }
}

void StoreShardSink::OnEntry(PathId path_id, NodeId target, int64_t sent, int64_t lost,
                             RttSketch* rtt) {
  if (path_id >= 0 && rtt != nullptr) {
    shard_.RecordPathWithRtt(path_id, target, sent, lost, std::move(*rtt));
  } else {
    ReportSink::OnEntry(path_id, target, sent, lost, nullptr);
  }
}

template <typename Sink>
PingerTraffic Pinger::RunEntries(const ProbeEngine& engine, double window_seconds, size_t begin,
                                 size_t end, const Watchdog* watchdog, Rng& list_rng,
                                 Sink&& sink) const {
  // Drawn first, whatever the range and the watchdog: the caller's stream always advances by
  // exactly this one draw.
  const uint64_t list_seed = list_rng();
  PingerTraffic traffic;
  const std::vector<PinglistEntry>& entries = pinglist_.entries;
  int64_t eligible = 0;
  for (const PinglistEntry& entry : entries) {
    eligible += EntryEligible(entry, watchdog) ? 1 : 0;
  }
  if (eligible == 0) {
    return traffic;
  }
  // The budget split is computed over the whole list, so an entry's packet count depends only
  // on its eligible rank, never on the [begin, end) range it runs in.
  const int64_t budget =
      std::max<int64_t>(1, static_cast<int64_t>(pinglist_.packets_per_second * window_seconds));
  const int64_t per_entry = std::max<int64_t>(1, budget / eligible);
  // When filtering skipped entries, their budget share is redistributed over the live ones;
  // the integer split truncates, so the remainder goes one extra packet at a time to the
  // first eligible entries in pinglist order. The assignment depends only on this pinglist's
  // own entry order — never on shard scheduling or thread count, which the 1/2/8-thread
  // bit-exactness oracle in tests/parallel_window_test.cc covers with filtering active.
  const bool redistributing = eligible < static_cast<int64_t>(entries.size());
  const int64_t extra_packets =
      redistributing ? std::max<int64_t>(0, budget - per_entry * eligible) : 0;

  end = std::min(end, entries.size());
  int64_t eligible_index = 0;
  for (size_t i = 0; i < std::min(begin, end); ++i) {
    eligible_index += EntryEligible(entries[i], watchdog) ? 1 : 0;
  }
  for (size_t i = begin; i < end; ++i) {
    const PinglistEntry& entry = entries[i];
    if (!EntryEligible(entry, watchdog)) {
      continue;
    }
    const int64_t packets = per_entry + (eligible_index < extra_packets ? 1 : 0);
    ++eligible_index;
    Rng rng = EntryRng(list_seed, i);
    // Matrix entries sample RTTs when the engine observes them; intra-rack probes stay
    // loss-only (the anomaly plane runs over the probe matrix).
    std::optional<RttSketch> rtt;
    if (engine.rtt_observation() && entry.path_id >= 0) {
      rtt.emplace(engine.rtt_sketch_bins());
    }
    RttSketch* rtt_ptr = rtt.has_value() ? &*rtt : nullptr;
    PathObservation obs = engine.SimulatePath(entry.route, pinglist_.pinger,
                                              entry.target_server,
                                              static_cast<int>(packets), rng, rtt_ptr);
    if (obs.lost > 0 && confirm_packets_ > 0) {
      // Confirm the loss pattern with extra probes of the same content (§3.1).
      const PathObservation confirm = engine.SimulatePath(
          entry.route, pinglist_.pinger, entry.target_server, confirm_packets_, rng, rtt_ptr);
      obs.sent += confirm.sent;
      obs.lost += confirm.lost;
    }
    traffic.probes_sent += obs.sent;
    traffic.bytes_sent += obs.sent * engine.config().probe_bytes * 2;  // request + echo
    sink(entry.path_id, entry.target_server, obs.sent, obs.lost,
         rtt_ptr != nullptr && rtt_ptr->total() > 0 ? rtt_ptr : nullptr);
  }
  return traffic;
}

PingerWindowResult Pinger::RunWindow(const ProbeEngine& engine, double window_seconds,
                                     Rng& rng, const Watchdog* watchdog) const {
  PingerWindowResult result;
  result.pinger = pinglist_.pinger;
  result.reports.reserve(pinglist_.entries.size());
  const PingerTraffic traffic = RunEntries(engine, window_seconds, 0, pinglist_.entries.size(),
                                           watchdog, rng, AppendTo(result.reports));
  result.probes_sent = traffic.probes_sent;
  result.bytes_sent = traffic.bytes_sent;
  return result;
}

PingerTraffic Pinger::RunWindowTo(const ProbeEngine& engine, double window_seconds, Rng& rng,
                                  ReportSink& sink, const Watchdog* watchdog) const {
  return RunEntries(
      engine, window_seconds, 0, pinglist_.entries.size(), watchdog, rng,
      [&](PathId path_id, NodeId target, int64_t sent, int64_t lost, RttSketch* rtt) {
        sink.OnEntry(path_id, target, sent, lost, rtt);
      });
}

PingerTraffic Pinger::RunEntryRange(const ProbeEngine& engine, double window_seconds,
                                    uint64_t window_seed, size_t begin, size_t end,
                                    std::vector<PathReport>& out,
                                    const Watchdog* watchdog) const {
  Rng list_rng = ProbeEngine::ShardRng(window_seed, static_cast<uint64_t>(pinglist_.pinger));
  return RunEntries(engine, window_seconds, begin, end, watchdog, list_rng, AppendTo(out));
}

}  // namespace detector
