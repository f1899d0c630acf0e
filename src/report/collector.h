// Collector: the analyzer-side half of the report plane. Raw frames from many pingers land in
// bounded ingest-shard queues (pinger id → shard by a cheap header peek; Offer is thread-safe
// and a full queue drops-and-counts, like a saturated ingest stage should). Frames from
// different pingers never touch the same ObservationStore shard, so the drain side splits the
// same way: each ingest shard decodes and folds independently, and disjoint shard ranges can
// drain on concurrent threads with no lock between them. Per-shard stats roll up into one
// CollectorStats view.
//
// Delivery tolerance, in line with what a real report network does to frames:
//  - corrupted / truncated: ReportCodec rejects the frame before any record is touched —
//    a frame folds whole or not at all;
//  - duplicated: frames are idempotent by (pinger, window, seq); a re-delivery is counted
//    and discarded, so totals stay bit-identical to exactly-once delivery;
//  - reordered: folding is order-independent (integer sums; epoch stamps ride each record),
//    so any arrival order of a window's frames produces the same totals;
//  - delayed past its window: a frame whose window_id predates the current window is stale
//    and discarded — its observations aggregated nowhere rather than into the wrong window;
//  - dropped: simply never arrives; the window diagnoses on what did;
//  - misrouted: with a partition installed, a frame whose pinger another collector owns is
//    rejected-and-counted, never folded — the fabric cannot double-count.
//
// Threading contract:
//  - Offer / OfferUnbounded: any thread, any time.
//  - DrainShardRange over disjoint ranges: concurrent. A shard has one drainer at a time.
//  - BeginWindow, AdvancePendingWindows, Drain, PumpFrom, stats(): serial points — call with
//    no concurrent drainer. A drainer that meets a newer-window frame parks it and stops
//    (flagging the advance as pending) so the window flip itself always happens serially.
#ifndef SRC_REPORT_COLLECTOR_H_
#define SRC_REPORT_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "src/detector/observation_store.h"
#include "src/net/transport.h"
#include "src/report/codec.h"
#include "src/report/partition.h"

namespace detector {

struct CollectorOptions {
  size_t queue_capacity = 1024;  // frames each ingest-shard queue holds before Offer drops
  size_t ingest_shards = 1;      // parallel decode/fold lanes (pinger-affine; clamped >= 1)
  ReportKey key;                 // frame-authentication key (must match the emitters')
  // Liveness ticks of silence (the clock advances at every BeginWindow and every segment
  // boundary) after which a known pinger counts as stale. 0 disables the stale flagging;
  // last-seen tracking itself always runs.
  uint64_t liveness_horizon = 0;
};

struct CollectorStats {
  uint64_t frames_folded = 0;
  uint64_t observations_folded = 0;
  uint64_t duplicates_dropped = 0;      // (pinger, window, seq) already folded
  uint64_t decode_errors = 0;           // CRC mismatches, truncation, malformed frames
  uint64_t tampered_dropped = 0;        // CRC-clean frames failing the keyed-tag verify
  uint64_t stale_window_dropped = 0;    // frame.window_id older than the current window
  uint64_t queue_overflow_dropped = 0;  // bounded shard queue was full at Offer time
  uint64_t unknown_slot_dropped = 0;    // records beyond the store's slot table (skipped)
  uint64_t unknown_records = 0;         // ext records of a type this build doesn't know (skipped)
  uint64_t wrong_partition_dropped = 0; // frame's pinger is owned by another collector
  uint64_t window_advances = 0;         // pending-window flips applied
  uint64_t frames_straddled = 0;        // folded >= 1 segment boundary after arrival
  uint64_t max_fold_staleness = 0;      // worst boundaries-crossed-while-queued of any fold
  uint64_t pingers_tracked = 0;         // gauge: pingers with liveness state (ever heard)
  uint64_t stale_pingers = 0;           // gauge: tracked pingers silent past the horizon
};

// Last authenticated word from one pinger: the newest (window, seq) decoded from it and the
// liveness-clock tick it arrived at. A pinger whose tick falls `liveness_horizon` behind the
// clock is stale — a silent agent is an alarm, not a blind spot.
struct PingerLiveness {
  uint64_t window = 0;
  uint64_t seq = 0;
  uint64_t tick = 0;
};

class Collector {
 public:
  explicit Collector(ObservationStore& store, CollectorOptions options = {});

  // Opens aggregation window `window_id`: later frames carrying an older id are stale.
  // Dedup state of closed windows is pruned here. Serial point.
  void BeginWindow(uint64_t window_id);
  uint64_t current_window() const {
    return current_window_.load(std::memory_order_acquire);
  }

  // Called (from a serial point) just before the window advances to a newer id carried by a
  // queued frame — the standalone daemon hooks this to diagnose-and-clear the finished
  // window. Without a hook the collector just advances.
  void set_on_window_advance(std::function<void(uint64_t closed, uint64_t opened)> hook) {
    on_window_advance_ = std::move(hook);
  }

  // Installs partition ownership: frames whose pinger `map` routes to a partition other than
  // `partition` are rejected-and-counted at fold time. `map` must outlive the collector (or
  // the next SetPartition). Serial point; nullptr clears the check.
  void SetPartition(const PartitionMap* map, int partition);

  // Points the store-OpenShard guard at a shared mutex — CollectorGroup does this so N
  // collectors folding first-seen pingers concurrently serialize their OpenShard calls.
  void set_store_open_mutex(std::mutex* mu) { open_mu_ = mu == nullptr ? &own_open_mu_ : mu; }

  // Producer side (thread-safe, any thread): enqueues one raw frame onto its pinger's ingest
  // shard; false = that shard's queue full, frame dropped and counted under the shard lock.
  bool Offer(std::vector<uint8_t> frame);

  // Producer side without the capacity bound — for a pump that owns delivery end-to-end
  // (PumpFrom, or an external receive loop feeding concurrent drainers) and must not turn a
  // lossless transport into a lossy one. Memory is bounded by the transport backlog instead
  // of queue_capacity.
  void OfferUnbounded(std::vector<uint8_t> frame);

  // Serial consumer: decodes and folds queued frames across all shards, applying pending
  // window advances between passes. `max_frames` bounds frames *processed* this call
  // (0 = everything queued); leftovers stay queued for the next call — the pipelined mode's
  // per-boundary fold budget. Returns frames folded.
  size_t Drain(size_t max_frames = 0);

  // Concurrent consumer for ingest shards [begin, end): decodes and folds until the range is
  // empty, the processed-frame budget runs out, or a newer-window frame parks (the flip is
  // left pending for a serial AdvancePendingWindows). Ranges given to concurrent callers must
  // be disjoint. Returns frames folded.
  size_t DrainShardRange(size_t begin, size_t end, size_t max_frames = 0,
                         size_t* processed = nullptr);

  // Applies the oldest pending window advance flagged by drainers (hook, then flip, then
  // dedup prune). Serial point — no concurrent drainer. True if a flip was applied; call
  // Drain/DrainShardRange again afterwards to fold the parked frames.
  bool AdvancePendingWindows();

  // Receives everything the transport has pending into the shard queues (unbounded — the
  // pump owns both sides) and Drain()s with `max_fold_frames` as the processed budget
  // (0 = drain everything). Returns frames folded. Serial point.
  size_t PumpFrom(Transport& transport, size_t max_fold_frames = 0);

  // Folds every queued frame stamped before `min_fresh_stamp`, ignoring any fold budget —
  // the pipelined mode's staleness enforcer. Shard queues are FIFO and stamps non-decreasing,
  // so calling this each boundary with `boundary() - depth + 1` bounds every fold at
  // staleness <= depth (CollectorStats::max_fold_staleness) no matter how small the budgeted
  // pump is. Returns frames folded. Serial point.
  size_t DrainStale(uint64_t min_fresh_stamp);

  // Stamps a segment boundary for staleness accounting: a frame offered at boundary b and
  // folded at boundary b+k folded k boundaries stale (frames_straddled / max_fold_staleness).
  // Any thread, but in practice the serial segment loop.
  void AdvanceBoundary() {
    boundary_.fetch_add(1, std::memory_order_acq_rel);
    liveness_clock_.fetch_add(1, std::memory_order_acq_rel);
  }
  uint64_t boundary() const { return boundary_.load(std::memory_order_acquire); }

  // Rolls per-shard counters up into one view (sums; max for max_fold_staleness; liveness
  // gauges computed against the current clock). Serial point with respect to drainers.
  CollectorStats stats() const;
  size_t queued() const;

  // Pingers this collector has heard from (any authenticated frame it owns, including
  // duplicates and stale-window arrivals) whose last word is more than liveness_horizon
  // ticks old — sorted, empty when the horizon is 0. Serial point.
  std::vector<NodeId> StalePingers() const;
  uint64_t liveness_clock() const { return liveness_clock_.load(std::memory_order_acquire); }

  size_t num_ingest_shards() const { return shards_.size(); }
  // The ingest shard Offer routes `pinger` to — PingerHash-based, stable across processes.
  size_t IngestShardOf(NodeId pinger) const {
    return static_cast<size_t>(PingerHash(pinger) % shards_.size());
  }

 private:
  // One pinger-affine ingest lane: its own bounded queue, dedup state, stats, and decode
  // scratch. `mu` guards the queue (and the overflow counter, bumped at Offer under it);
  // everything else is owned by the shard's single drainer.
  struct IngestShard {
    std::mutex mu;
    std::deque<std::pair<uint64_t, std::vector<uint8_t>>> queue;  // (boundary stamp, frame)
    // Folded frame seqs per pinger for the current window — the idempotence filter. Pruned
    // at window flips; seq ranges are small (frames per pinger per window).
    std::map<NodeId, std::set<uint64_t>> folded_seqs;
    // Store shards this lane already opened — OpenShard mutates the store's pinger map, so
    // first-seen pingers go through the open mutex once and are cached after.
    std::map<NodeId, ObservationStore::Shard*> store_shards;
    // Per-pinger liveness (pinger-affine, so exactly one lane tracks each pinger). Written
    // only by this shard's drainer; read at the stats()/StalePingers() serial points. NOT
    // pruned at window flips — silence is precisely what it must remember across windows.
    std::map<NodeId, PingerLiveness> last_seen;
    CollectorStats stats;
    uint64_t pending_window = 0;  // newer window id seen at the queue head
    bool has_pending = false;
    std::vector<uint8_t> raw;  // drain scratch
    ReportFrame decoded;       // drain scratch
  };

  bool OfferToShard(size_t index, std::vector<uint8_t> frame, bool bounded);
  // `stamp_below` stops the drain at the first frame stamped >= it (UINT64_MAX = no cutoff).
  size_t DrainShard(IngestShard& shard, size_t max_frames, size_t& processed,
                    uint64_t stamp_below);
  void FoldFrame(IngestShard& shard, const ReportFrame& frame, uint64_t staleness);

  ObservationStore& store_;
  const CollectorOptions options_;

  std::vector<std::unique_ptr<IngestShard>> shards_;

  std::atomic<uint64_t> current_window_{0};
  std::atomic<uint64_t> boundary_{0};
  // Monotonic liveness clock: ticks at every BeginWindow and every AdvanceBoundary (the
  // per-window boundary_ resets and cannot serve). Never reset.
  std::atomic<uint64_t> liveness_clock_{0};
  std::function<void(uint64_t, uint64_t)> on_window_advance_;
  uint64_t window_advances_ = 0;  // serial-point counter (flips happen serially)

  const PartitionMap* partition_map_ = nullptr;
  int partition_ = 0;

  std::mutex own_open_mu_;
  std::mutex* open_mu_ = &own_open_mu_;
};

}  // namespace detector

#endif  // SRC_REPORT_COLLECTOR_H_
