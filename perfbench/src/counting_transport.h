// Byte-accounting Transport decorator, installed on the report plane through
// DetectorSystem::SetReportTransportFactory (or the traced pipeline's own fabric). It forwards
// every call to a lossless LoopbackTransport and counts frames and bytes from outside the
// program — the benchmark's wire_kb_per_window does not rely on the system's own stats.
//
// Counters are atomics: in the untraced run one pool worker sends while another receives.
// The traced run is single-threaded and additionally times Send/Receive (folded into the
// net.send / net.recv aggregate spans) and can capture every sent frame for the offline
// decode pass.
#ifndef PERFBENCH_SRC_COUNTING_TRANSPORT_H_
#define PERFBENCH_SRC_COUNTING_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/net/loopback.h"
#include "src/net/transport.h"

namespace perfbench {

class CountingTransport final : public detector::Transport {
 public:
  CountingTransport() : inner_(std::make_unique<detector::LoopbackTransport>()) {}

  bool Send(std::span<const uint8_t> frame) override {
    const int64_t t0 = timed_ ? NowNs() : 0;
    const bool ok = inner_->Send(frame);
    if (timed_) {
      send_ns_ += NowNs() - t0;
      ++send_calls_;
    }
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
    if (capture_) {
      captured_.emplace_back(frame.begin(), frame.end());
    }
    return ok;
  }

  bool Receive(std::vector<uint8_t>& out) override {
    const int64_t t0 = timed_ ? NowNs() : 0;
    const bool got = inner_->Receive(out);
    if (timed_) {
      recv_ns_ += NowNs() - t0;
      ++recv_calls_;
    }
    return got;
  }

  void Flush() override { inner_->Flush(); }
  detector::TransportStats stats() const override { return inner_->stats(); }

  uint64_t frames_sent() const { return frames_sent_.load(std::memory_order_relaxed); }
  uint64_t bytes_sent() const { return bytes_sent_.load(std::memory_order_relaxed); }

  // Traced-run instrumentation (single-threaded use only).
  void set_timed(bool timed) { timed_ = timed; }
  void set_capture(bool capture) { capture_ = capture; }
  // Returns and resets the accumulated Send/Receive time and call counts.
  void TakeSendTime(int64_t& ns, uint32_t& calls) {
    ns = send_ns_;
    calls = send_calls_;
    send_ns_ = 0;
    send_calls_ = 0;
  }
  void TakeRecvTime(int64_t& ns, uint32_t& calls) {
    ns = recv_ns_;
    calls = recv_calls_;
    recv_ns_ = 0;
    recv_calls_ = 0;
  }
  std::vector<std::vector<uint8_t>> TakeCaptured() { return std::move(captured_); }

 private:
  std::unique_ptr<detector::Transport> inner_;
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  bool timed_ = false;
  bool capture_ = false;
  int64_t send_ns_ = 0;
  uint32_t send_calls_ = 0;
  int64_t recv_ns_ = 0;
  uint32_t recv_calls_ = 0;
  std::vector<std::vector<uint8_t>> captured_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COUNTING_TRANSPORT_H_
