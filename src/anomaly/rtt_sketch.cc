#include "src/anomaly/rtt_sketch.h"

#include <algorithm>

namespace detector {

namespace {

// Rank of the q-quantile sample among `total` (> 0) samples, 1-based: ceil(q * total),
// at least 1.
int64_t QuantileRank(double q, int64_t total) {
  const double clamped = std::clamp(q, 0.0, 1.0);
  int64_t rank = static_cast<int64_t>(clamped * static_cast<double>(total));
  if (static_cast<double>(rank) < clamped * static_cast<double>(total)) ++rank;
  return std::clamp<int64_t>(rank, 1, total);
}

}  // namespace

// Ascending walk over a sketch's non-zero bins, in either form.
class RttSketch::NonZeroCursor {
 public:
  explicit NonZeroCursor(const RttSketch& sketch) : s_(sketch) { SkipZeros(); }
  bool done() const { return pos_ >= (s_.dense() ? s_.num_bins_ : s_.size_); }
  int bin() const { return s_.dense() ? pos_ : s_.bins_[static_cast<size_t>(pos_)]; }
  int64_t count() const {
    return s_.dense() ? s_.dense_[static_cast<size_t>(pos_)]
                      : s_.counts_[static_cast<size_t>(pos_)];
  }
  void Next() {
    ++pos_;
    SkipZeros();
  }

 private:
  void SkipZeros() {
    if (!s_.dense()) return;
    while (pos_ < s_.num_bins_ && s_.dense_[static_cast<size_t>(pos_)] == 0) ++pos_;
  }

  const RttSketch& s_;
  int pos_ = 0;
};

int64_t RttSketch::count(int bin) const {
  DCHECK(bin >= 0 && (empty() || bin < num_bins_));
  if (!dense_.empty()) return dense_[static_cast<size_t>(bin)];
  for (int i = 0; i < size_ && bins_[i] <= bin; ++i) {
    if (bins_[i] == bin) return counts_[i];
  }
  return 0;
}

void RttSketch::Add(int bin, int64_t count) {
  if (!dense_.empty()) {
    dense_[static_cast<size_t>(bin)] += count;
    return;
  }
  // Scan from the back: samples and decoded bins mostly arrive in ascending order.
  int i = size_;
  while (i > 0 && bins_[i - 1] > bin) --i;
  if (i > 0 && bins_[i - 1] == bin) {
    counts_[i - 1] += count;
    if (counts_[i - 1] == 0) {  // a cancelled bin leaves the inline pairs
      for (int j = i; j < size_; ++j) {
        bins_[j - 1] = bins_[j];
        counts_[j - 1] = counts_[j];
      }
      --size_;
    }
    return;
  }
  if (count == 0) return;
  if (size_ == kInlineBins) {
    Spill();
    dense_[static_cast<size_t>(bin)] += count;
    return;
  }
  for (int j = size_; j > i; --j) {
    bins_[j] = bins_[j - 1];
    counts_[j] = counts_[j - 1];
  }
  bins_[i] = static_cast<uint16_t>(bin);
  counts_[i] = count;
  ++size_;
}

void RttSketch::Spill() {
  dense_.assign(static_cast<size_t>(num_bins_), 0);
  for (int i = 0; i < size_; ++i) dense_[bins_[i]] = counts_[i];
  size_ = 0;
}

void RttSketch::Merge(const RttSketch& other, int64_t sign) {
  if (other.empty()) return;
  if (&other == this) {
    const RttSketch copy = other;
    Merge(copy, sign);
    return;
  }
  if (empty()) num_bins_ = other.num_bins_;
  CHECK(num_bins_ == other.num_bins_)
      << "merging sketches with different bin counts: " << num_bins_ << " vs "
      << other.num_bins_;
  other.ForEachNonZero([&](int bin, int64_t c) { Add(bin, sign * c); });
  total_ += sign * other.total_;
  if (total_ == 0) {
    // A merge that cancels every count (the watchdog retract path) returns the sketch to the
    // empty state, so a running fold stays bit-identical to a view rebuilt from the surviving
    // records — which never merges anything for a fully retracted slot.
    bool any_nonzero = false;
    ForEachNonZero([&](int, int64_t) { any_nonzero = true; });
    if (!any_nonzero) Clear();
  }
}

int64_t RttSketch::Quantile(double q) const {
  if (total_ <= 0) return 0;
  const int64_t rank = QuantileRank(q, total_);
  int64_t cumulative = 0;
  if (dense_.empty()) {
    for (int i = 0; i < size_; ++i) {
      cumulative += counts_[i];
      if (cumulative >= rank) return BinLowerUs(bins_[i]);
    }
  } else {
    for (int bin = 0; bin < num_bins_; ++bin) {
      cumulative += dense_[static_cast<size_t>(bin)];
      if (cumulative >= rank) return BinLowerUs(bin);
    }
  }
  return BinLowerUs(num_bins_ - 1);
}

int64_t RttSketch::DeltaQuantile(const RttSketch& cur, const RttSketch& prev, double q) {
  CHECK(cur.empty() || prev.empty() || cur.num_bins_ == prev.num_bins_)
      << "merging sketches with different bin counts: " << cur.num_bins_ << " vs "
      << prev.num_bins_;
  const int64_t total = cur.total_ - prev.total_;
  if (total <= 0) return 0;
  const int64_t rank = QuantileRank(q, total);
  // Bins where both sketches are zero leave the cumulative count where it was, below the
  // rank, so walking the union of the non-zero bins finds the same bin as a dense scan.
  int64_t cumulative = 0;
  NonZeroCursor a(cur);
  NonZeroCursor b(prev);
  while (!a.done() || !b.done()) {
    const int bin = a.done() ? b.bin() : b.done() ? a.bin() : std::min(a.bin(), b.bin());
    if (!a.done() && a.bin() == bin) {
      cumulative += a.count();
      a.Next();
    }
    if (!b.done() && b.bin() == bin) {
      cumulative -= b.count();
      b.Next();
    }
    if (cumulative >= rank) return BinLowerUs(bin);
  }
  return BinLowerUs((cur.empty() ? prev.num_bins_ : cur.num_bins_) - 1);
}

bool RttSketch::operator==(const RttSketch& other) const {
  if (num_bins_ != other.num_bins_ || total_ != other.total_) return false;
  if (dense_.empty() && other.dense_.empty()) {
    return size_ == other.size_ &&
           std::equal(bins_.begin(), bins_.begin() + size_, other.bins_.begin()) &&
           std::equal(counts_.begin(), counts_.begin() + size_, other.counts_.begin());
  }
  for (int bin = 0; bin < num_bins_; ++bin) {
    if (count(bin) != other.count(bin)) return false;
  }
  return true;
}

}  // namespace detector
