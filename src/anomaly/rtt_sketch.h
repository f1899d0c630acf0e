// Deterministic fixed-bin quantile sketch for path RTT samples.
//
// Bins are HDR-style log-linear over integer microseconds: values 0..3 get one
// bin each, then every octave [2^b, 2^(b+1)) splits into 4 sub-bins. The bin
// index is computed with pure integer arithmetic (bit_width + shifts), so the
// sketch is bit-identical on every platform and under any shard/thread split —
// the same discipline as the (sent, lost) counters. Merging is element-wise
// integer addition: commutative, associative, and signed (sign = -1 retracts a
// previously merged sketch, mirroring the watchdog retract/re-add path in the
// ObservationStore).
//
// Representation: a per-probe-record sketch holds a handful of samples (at most
// 2 x rtt_samples_per_path), and even a path's whole-window total rarely spans
// more than a few bins, so counts live inline as sorted (bin, count) pairs — up
// to kInlineBins non-zero bins, no heap. A sketch spills into a dense num_bins
// array when one more bin turns non-zero, and stays dense until it returns to
// empty. Costs scale with the non-zero bins: recording, merging, copying and
// the quantile walk never touch zero bins of an inline sketch. The form is
// invisible to every reader: counts are read through count(bin) or the
// ascending non-zero visitor, equality compares per-bin counts, and the wire
// encoding is the same.
//
// A default-constructed sketch is *empty* (no bins). Merging into an empty
// sketch adopts the other side's bin count; recording requires explicit
// construction with a bin count. Empty sketches compare unequal to allocated
// all-zero sketches, so producers skip empty sketches entirely (nothing is
// recorded or put on the wire for a path with no RTT samples) to keep direct
// and report-plane folds bit-identical.
#ifndef SRC_ANOMALY_RTT_SKETCH_H_
#define SRC_ANOMALY_RTT_SKETCH_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace detector {

class RttSketch {
 public:
  // 4 sub-bins per octave: ~25% relative quantile error, purely integer mapping.
  static constexpr int kSubBins = 4;
  // 80 bins span [0us, ~2.1s) with 4 sub-bins/octave; larger values clamp into
  // the last bin.
  static constexpr int kDefaultBins = 80;
  static constexpr int kMaxBins = 4096;
  // Non-zero bins held inline before the sketch spills into the dense form. A probe record
  // carries at most 2 x rtt_samples_per_path samples (8 at the default of 4).
  static constexpr int kInlineBins = 8;

  RttSketch() = default;  // empty: no bins, total 0
  explicit RttSketch(int num_bins) : num_bins_(num_bins) {
    CHECK(num_bins >= kSubBins && num_bins <= kMaxBins)
        << "rtt sketch bins out of range: " << num_bins;
  }

  // Bin index of an RTT in microseconds (negative values clamp to bin 0,
  // overflow clamps to the last bin).
  static int BinOf(int64_t rtt_us, int num_bins) {
    if (rtt_us < kSubBins) return rtt_us < 0 ? 0 : static_cast<int>(rtt_us);
    const int width = std::bit_width(static_cast<uint64_t>(rtt_us));  // >= 3
    const int shift = width - 3;  // mantissa in [4, 8)
    const int64_t mantissa = rtt_us >> shift;
    const int index = (shift + 1) * kSubBins + static_cast<int>(mantissa) - kSubBins;
    return index < num_bins ? index : num_bins - 1;
  }

  // Inclusive lower bound of a bin in microseconds.
  static int64_t BinLowerUs(int bin) {
    if (bin < kSubBins) return bin;
    const int shift = bin / kSubBins - 1;
    return static_cast<int64_t>(kSubBins + bin % kSubBins) << shift;
  }

  // Exclusive upper bound; the last bin of a num_bins-sketch is unbounded.
  static int64_t BinUpperUs(int bin, int num_bins) {
    if (bin >= num_bins - 1) return INT64_MAX;
    return BinLowerUs(bin + 1);
  }

  bool empty() const { return num_bins_ == 0; }
  int num_bins() const { return num_bins_; }
  int64_t total() const { return total_; }
  // True once the counts spilled out of the inline pairs (until the sketch returns to empty).
  bool dense() const { return !dense_.empty(); }

  // Count of one bin in [0, num_bins()); 0 for an empty sketch.
  int64_t count(int bin) const;

  // Calls visit(int bin, int64_t count) for every non-zero bin in ascending bin order.
  template <typename Visit>
  void ForEachNonZero(Visit&& visit) const {
    if (dense_.empty()) {
      for (int i = 0; i < size_; ++i) visit(static_cast<int>(bins_[i]), counts_[i]);
      return;
    }
    for (int bin = 0; bin < num_bins_; ++bin) {
      if (dense_[static_cast<size_t>(bin)] != 0) visit(bin, dense_[static_cast<size_t>(bin)]);
    }
  }

  void Record(int64_t rtt_us) {
    DCHECK(!empty()) << "recording into an unallocated sketch";
    Add(BinOf(rtt_us, num_bins_), 1);
    total_ += 1;
  }

  // Adds (sign = +1) or retracts (sign = -1) every count of `other`, bin by non-zero bin.
  // Merging a non-empty sketch into an empty one adopts its bin count; merging an empty
  // sketch is a no-op.
  void Merge(const RttSketch& other, int64_t sign = 1);

  // Raw count accumulation for wire decode.
  void AddCount(int bin, int64_t count) {
    DCHECK(bin >= 0 && bin < num_bins_);
    Add(bin, count);
    total_ += count;
  }

  // Lower bound of the bin holding the q-quantile sample (q in [0, 1]); the
  // true quantile lies in [result, BinUpperUs(bin)). Returns 0 when empty.
  int64_t Quantile(double q) const;

  // Quantile(q) of the difference cur - prev (prev merged into a copy of cur with sign -1),
  // read in place by one ascending walk over both sketches' non-zero bins.
  static int64_t DeltaQuantile(const RttSketch& cur, const RttSketch& prev, double q);

  void Clear() {
    num_bins_ = 0;
    size_ = 0;
    total_ = 0;
    dense_.clear();  // keeps the capacity: a re-spill does not reallocate
  }

  // Equal bin counts, totals and per-bin counts, whatever the representation.
  bool operator==(const RttSketch& other) const;

 private:
  class NonZeroCursor;

  // Adds `count` to one bin without touching total_; spills when a ninth bin turns non-zero.
  void Add(int bin, int64_t count);
  void Spill();

  int32_t num_bins_ = 0;
  int32_t size_ = 0;  // inline pairs in use (0 in the dense form)
  int64_t total_ = 0;
  // Inline form: bins_[0, size_) strictly ascending, every counts_[i] non-zero.
  std::array<uint16_t, kInlineBins> bins_{};
  std::array<int64_t, kInlineBins> counts_{};
  std::vector<int64_t> dense_;  // dense form: num_bins_ counts; empty in the inline form
};

}  // namespace detector

#endif  // SRC_ANOMALY_RTT_SKETCH_H_
