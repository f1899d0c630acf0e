// Pinger (§3.1, §6.1): loops over its pinglist at a configured rate, cycling source ports for
// packet entropy, confirms each observed loss with two extra probes of the same content, and
// aggregates (sent, lost) per path into a 30-second report for the diagnoser.
//
// Every entry point runs the one entry loop: RunWindow returns the classic monolithic
// end-of-window report, RunWindowTo streams each entry's counters into a ReportSink (a wire
// emitter, or a StoreShardSink), and RunEntryRange runs a slice of the list, so the slices of
// one giant list can execute on different workers. The loop takes one draw from the caller's
// stream as the list seed, and entry i then draws from its own stream keyed by (list seed, i):
// given the stream ProbeEngine::ShardRng(window_seed, pinger) that RunEntryRange builds
// itself, all three produce the same counters for every entry.
#ifndef SRC_DETECTOR_PINGER_H_
#define SRC_DETECTOR_PINGER_H_

#include <vector>

#include "src/detector/observation_store.h"
#include "src/detector/pinglist.h"
#include "src/localize/observations.h"
#include "src/sim/probe_engine.h"
#include "src/sim/watchdog.h"

namespace detector {

struct PathReport {
  PathId path_id = -1;  // PinglistEntry::kIntraRackPath for intra-rack probes
  NodeId target = kInvalidNode;
  int64_t sent = 0;
  int64_t lost = 0;
  // RTT sample sketch for this entry's probes; empty unless the engine has RTT observation
  // attached and the entry had surviving probes (intra-rack entries never carry one).
  RttSketch rtt;
};

struct PingerWindowResult {
  NodeId pinger = kInvalidNode;
  std::vector<PathReport> reports;
  int64_t probes_sent = 0;  // round trips, including confirmation probes
  int64_t bytes_sent = 0;
};

// Traffic accounting of one shard's window execution (the observations themselves stream into
// the ObservationStore).
struct PingerTraffic {
  int64_t probes_sent = 0;
  int64_t bytes_sent = 0;
};

// Destination for streamed per-entry counters: the report plane's emitter encodes them into
// wire frames, a StoreShardSink writes them into the local ObservationStore. Calls arrive in
// pinglist-entry order from one thread at a time.
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual void OnPath(PathId slot, NodeId target, int64_t sent, int64_t lost) = 0;
  virtual void OnIntraRack(NodeId target, int64_t sent, int64_t lost) = 0;
  // RTT sample sketch of the path reported by the immediately preceding OnPath call, delivered
  // only when RTT observation is enabled and the sketch is non-empty. Default: discard — a
  // sink predating the anomaly plane keeps working on loss records alone.
  virtual void OnPathRtt(PathId slot, NodeId target, const RttSketch& sketch) {
    (void)slot;
    (void)target;
    (void)sketch;
  }
  // One pinglist entry's result; `rtt` is null unless the entry carries a non-empty sketch,
  // and the sink may move from it. Default: OnIntraRack for intra-rack entries, OnPath then
  // OnPathRtt for matrix paths; other negative ids (a corrupt wire pinglist) are dropped,
  // matching Diagnoser::Ingest.
  virtual void OnEntry(PathId path_id, NodeId target, int64_t sent, int64_t lost,
                       RttSketch* rtt);
};

// ReportSink over one ObservationStore shard — the direct-mode writer. The shard must belong
// to the reporting pinger and be written by no other thread meanwhile. A path's RTT sketch
// lands on the same record as its loss counters (RecordPathWithRtt).
class StoreShardSink final : public ReportSink {
 public:
  explicit StoreShardSink(ObservationStore::Shard& shard) : shard_(shard) {}
  void OnPath(PathId slot, NodeId target, int64_t sent, int64_t lost) override {
    shard_.RecordPath(slot, target, sent, lost);
  }
  void OnIntraRack(NodeId target, int64_t sent, int64_t lost) override {
    shard_.RecordIntraRack(target, sent, lost);
  }
  void OnEntry(PathId path_id, NodeId target, int64_t sent, int64_t lost,
               RttSketch* rtt) override;

 private:
  ObservationStore::Shard& shard_;
};

class Pinger {
 public:
  // Borrows `pinglist`, which must outlive the Pinger; a temporary cannot bind.
  explicit Pinger(const Pinglist& pinglist, int confirm_packets = 2)
      : pinglist_(pinglist), confirm_packets_(confirm_packets) {}
  Pinger(Pinglist&&, int = 2) = delete;

  // Executes one aggregation window: the packet budget (pps x seconds) is spread round-robin
  // over the pinglist entries. With a watchdog, intra-rack entries targeting flagged servers
  // are skipped (defense-in-depth: churn deltas remove such entries from standing pinglists,
  // this covers servers flagged outside the delta flow) — a downed server draws no probes and
  // records no counters, and the skipped entries' budget share, remainder included, is
  // redistributed deterministically over the live ones in entry order.
  PingerWindowResult RunWindow(const ProbeEngine& engine, double window_seconds, Rng& rng,
                               const Watchdog* watchdog = nullptr) const;

  // Same window, streamed: each entry's counters reach `sink` the moment they are measured.
  // The watchdog, when given, filters intra-rack entries as in RunWindow (it is only read, so
  // concurrent pingers may share one instance between serial phases).
  PingerTraffic RunWindowTo(const ProbeEngine& engine, double window_seconds, Rng& rng,
                            ReportSink& sink, const Watchdog* watchdog = nullptr) const;

  // Entries [begin, end) of the same window, on the list stream
  // ProbeEngine::ShardRng(window_seed, pinger) — the sub-sharded execution mode that splits a
  // giant pinglist across workers. The packet-budget split is still computed over the whole
  // pinglist, and entry i draws from its own stream, so the union of any disjoint range cover
  // reports exactly what one RunWindow(engine, window_seconds, ShardRng(window_seed, pinger))
  // call does, whatever the partition and the thread scheduling. Reports append to `out` in
  // entry order; the returned traffic covers this range only.
  PingerTraffic RunEntryRange(const ProbeEngine& engine, double window_seconds,
                              uint64_t window_seed, size_t begin, size_t end,
                              std::vector<PathReport>& out,
                              const Watchdog* watchdog = nullptr) const;

 private:
  // The entry loop: takes one draw from `list_rng` as the list seed, runs every eligible entry
  // of [begin, end) on its stream keyed by (list seed, entry index) — its loss draws, then its
  // RTT draws, then the same for its confirmation probes — and hands (path_id, target, sent,
  // lost, rtt) to `sink`; rtt is null unless the engine samples RTTs and the entry's sketch is
  // non-empty.
  template <typename Sink>
  PingerTraffic RunEntries(const ProbeEngine& engine, double window_seconds, size_t begin,
                           size_t end, const Watchdog* watchdog, Rng& list_rng,
                           Sink&& sink) const;

  const Pinglist& pinglist_;
  int confirm_packets_;
};

}  // namespace detector

#endif  // SRC_DETECTOR_PINGER_H_
