#include "src/sim/latency_model.h"

#include <algorithm>
#include <cmath>

namespace detector {

double LatencyModel::SampleRttUs(std::span<const LinkId> links,
                                 std::span<const double> link_load_mbps, Rng& rng) const {
  double rtt = 0.0;
  for (LinkId link : links) {
    const double rho = std::min(options_.max_utilization,
                                link_load_mbps[static_cast<size_t>(link)] /
                                    options_.link_capacity_mbps);
    const double hop = options_.per_hop_base_us / (1.0 - rho);
    const double jitter = -options_.jitter_scale_us / (1.0 - rho) * std::log1p(-rng.NextDouble());
    // Round trip: both directions of the link.
    rtt += 2.0 * (hop + jitter);
  }
  return rtt;
}

LinkLatencyTerms LatencyModel::LinkTerms(std::span<const double> link_load_mbps,
                                         size_t num_links) const {
  CHECK(link_load_mbps.empty() || link_load_mbps.size() == num_links);
  LinkLatencyTerms terms;
  if (link_load_mbps.empty()) {
    terms.hop_us.assign(num_links, 2.0 * options_.per_hop_base_us);
    terms.jitter_us.assign(num_links, 2.0 * options_.jitter_scale_us);
    return terms;
  }
  terms.hop_us.resize(num_links);
  terms.jitter_us.resize(num_links);
  for (size_t link = 0; link < num_links; ++link) {
    const double rho = std::min(options_.max_utilization,
                                link_load_mbps[link] / options_.link_capacity_mbps);
    terms.hop_us[link] = 2.0 * options_.per_hop_base_us / (1.0 - rho);
    terms.jitter_us[link] = 2.0 * options_.jitter_scale_us / (1.0 - rho);
  }
  return terms;
}

PathLatency::PathLatency(std::span<const LinkId> links, const LinkLatencyTerms& terms)
    : links_(links), terms_(terms) {
  for (size_t i = 0; i < links.size(); ++i) {
    const size_t link = static_cast<size_t>(links[i]);
    hop_us_ += terms.hop_us[link];
    if (i == 0) {
      jitter_us_ = terms.jitter_us[link];
    } else if (terms.jitter_us[link] != jitter_us_) {
      shared_jitter_ = false;
    }
  }
}

double PathLatency::SampleUs(Rng& rng) const {
  if (!shared_jitter_) {
    double rtt = hop_us_;
    for (LinkId link : links_) {
      rtt -= terms_.jitter_us[static_cast<size_t>(link)] * std::log1p(-rng.NextDouble());
    }
    return rtt;
  }
  // Each factor lies in [2^-53, 1]; folding the product into `log_sum` before it leaves the
  // normal range keeps any path length exact.
  double product = 1.0;
  double log_sum = 0.0;
  for (size_t i = 0; i < links_.size(); ++i) {
    product *= 1.0 - rng.NextDouble();
    if (product < 0x1p-900) {
      log_sum += std::log(product);
      product = 1.0;
    }
  }
  return hop_us_ - jitter_us_ * (log_sum + std::log(product));
}

}  // namespace detector
