// Sampler tests: the binomial draw and the probe simulator's loss and RTT draws against their
// exact distributions (Pearson chi-square goodness of fit over fixed seeds), independent of
// how a draw is implemented.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "src/anomaly/rtt_sketch.h"
#include "src/common/rng.h"
#include "src/sim/latency_model.h"
#include "src/sim/probe_engine.h"
#include "src/topo/fattree.h"

namespace detector {
namespace {

// Upper critical value of the chi-square distribution with `dof` degrees of freedom at
// significance 1e-4 (Wilson-Hilferty; slightly conservative at small dof).
double ChiSquareCritical(int dof) {
  const double z = 3.719;  // standard normal quantile at 1 - 1e-4
  const double k = dof;
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}

struct ChiSquare {
  double statistic = 0.0;
  int dof = 0;
  bool Passes() const { return dof == 0 || statistic < ChiSquareCritical(dof); }
};

// Pearson statistic of observed counts against expected probabilities over values
// 0..pmf.size()-1, pooling adjacent values into cells that each expect at least 5 draws
// (a short tail joins the last cell).
ChiSquare GoodnessOfFit(const std::vector<int64_t>& observed, const std::vector<double>& pmf,
                        int64_t draws) {
  EXPECT_EQ(observed.size(), pmf.size());
  std::vector<std::pair<double, double>> cells;  // (observed, expected)
  double obs = 0.0;
  double exp = 0.0;
  for (size_t v = 0; v < pmf.size(); ++v) {
    obs += static_cast<double>(observed[v]);
    exp += pmf[v] * static_cast<double>(draws);
    if (exp >= 5.0) {
      cells.emplace_back(obs, exp);
      obs = exp = 0.0;
    }
  }
  if (cells.empty()) {
    cells.emplace_back(obs, exp);
  } else {
    cells.back().first += obs;
    cells.back().second += exp;
  }
  ChiSquare result;
  for (const auto& [o, e] : cells) {
    result.statistic += (o - e) * (o - e) / e;
  }
  result.dof = static_cast<int>(cells.size()) - 1;
  return result;
}

// Two-sample homogeneity statistic of two histograms with equal totals, pooling adjacent
// keys into cells that hold at least 10 draws together.
ChiSquare Homogeneity(const std::map<int, int64_t>& a, const std::map<int, int64_t>& b) {
  std::map<int, std::pair<double, double>> both;
  for (const auto& [k, c] : a) both[k].first += static_cast<double>(c);
  for (const auto& [k, c] : b) both[k].second += static_cast<double>(c);
  std::vector<std::pair<double, double>> cells;
  double x = 0.0;
  double y = 0.0;
  for (const auto& [k, counts] : both) {
    x += counts.first;
    y += counts.second;
    if (x + y >= 10.0) {
      cells.emplace_back(x, y);
      x = y = 0.0;
    }
  }
  if (!cells.empty()) {
    cells.back().first += x;
    cells.back().second += y;
  }
  ChiSquare result;
  for (const auto& [u, v] : cells) {
    result.statistic += (u - v) * (u - v) / (u + v);
  }
  result.dof = std::max(0, static_cast<int>(cells.size()) - 1);
  return result;
}

std::vector<double> BinomialPmf(int64_t n, double p) {
  std::vector<double> pmf(static_cast<size_t>(n) + 1, 0.0);
  if (p <= 0.0 || p >= 1.0) {
    pmf[p <= 0.0 ? 0 : static_cast<size_t>(n)] = 1.0;
    return pmf;
  }
  const double log_n = std::lgamma(static_cast<double>(n) + 1.0);
  for (int64_t k = 0; k <= n; ++k) {
    pmf[static_cast<size_t>(k)] =
        std::exp(log_n - std::lgamma(static_cast<double>(k) + 1.0) -
                 std::lgamma(static_cast<double>(n - k) + 1.0) + k * std::log(p) +
                 (n - k) * std::log1p(-p));
  }
  return pmf;
}

std::vector<double> Convolve(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

void ExpectBinomialFit(int64_t n, double p, int64_t draws, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> observed(static_cast<size_t>(n) + 1, 0);
  for (int64_t i = 0; i < draws; ++i) {
    const int64_t x = rng.NextBinomial(n, p);
    ASSERT_GE(x, 0) << "n=" << n << " p=" << p;
    ASSERT_LE(x, n) << "n=" << n << " p=" << p;
    ++observed[static_cast<size_t>(x)];
  }
  const ChiSquare fit = GoodnessOfFit(observed, BinomialPmf(n, p), draws);
  EXPECT_TRUE(fit.Passes()) << "n=" << n << " p=" << p << " chi2=" << fit.statistic
                            << " dof=" << fit.dof << " critical=" << ChiSquareCritical(fit.dof);
}

TEST(BinomialSampler, SmallNGridMatchesPmf) {
  uint64_t seed = 1;
  for (int64_t n = 1; n <= 15; ++n) {
    for (const double p : {1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.95, 0.9999}) {
      ExpectBinomialFit(n, p, 20000, seed++);
    }
  }
}

TEST(BinomialSampler, ModerateAndLargeNMatchPmf) {
  struct Case {
    int64_t n;
    double p;
  };
  // Both sides of every regime switch an implementation may have: n*min(p, 1-p) around 10
  // and 30, p on either side of 0.5, and n large enough that only a rejection method is fast.
  const Case cases[] = {{300, 0.05},  {300, 0.95},  {60, 0.5},     {61, 0.5},
                        {200, 0.15},  {200, 0.85},  {1000, 0.03},  {1000, 0.97},
                        {5000, 0.02}, {40, 0.8},    {100000, 0.3}, {100000, 0.0004},
                        {20000, 0.5}, {1000000, 1e-6}};
  uint64_t seed = 1000;
  for (const Case& c : cases) {
    ExpectBinomialFit(c.n, c.p, 20000, seed++);
  }
}

TEST(BinomialSampler, DegenerateParameters) {
  Rng rng(5);
  EXPECT_EQ(rng.NextBinomial(0, 0.3), 0);
  EXPECT_EQ(rng.NextBinomial(50, 0.0), 0);
  EXPECT_EQ(rng.NextBinomial(50, -1.0), 0);
  EXPECT_EQ(rng.NextBinomial(50, 1.0), 50);
  EXPECT_EQ(rng.NextBinomial(50, 2.0), 50);
}

// The draws a seed names are part of the simulator's contract: these pinned values hold under
// any standard library and change only with a deliberate re-baseline of the trajectory.
TEST(BinomialSampler, GoldenSequence) {
  struct Case {
    int64_t n;
    double p;
    int64_t draws[8];
  };
  const Case cases[] = {
      {15, 0.08, {1, 2, 1, 3, 0, 1, 1, 0}},
      {12, 0.3, {3, 5, 4, 6, 2, 4, 3, 3}},
      {300, 0.05, {14, 19, 16, 20, 11, 15, 14, 13}},
      {1000, 0.4, {389, 400, 391, 409, 379, 417, 388, 364}},
      {100000, 0.7, {70126, 70024, 70098, 69930, 70217, 69851, 70133, 69960}},
  };
  for (const Case& c : cases) {
    Rng rng(42);
    for (const int64_t want : c.draws) {
      EXPECT_EQ(rng.NextBinomial(c.n, c.p), want) << "n=" << c.n << " p=" << c.p;
    }
  }
  Rng raw(7);
  EXPECT_EQ(raw(), 16364480853149029173ULL);
  EXPECT_EQ(raw(), 11231382816576475842ULL);
}

// The loss count of one SimulatePath call over `trials` calls, against `pmf`.
ChiSquare PathLossFit(const ProbeEngine& engine, std::span<const LinkId> path, NodeId src,
                      NodeId dst, int packets, const std::vector<double>& pmf, int trials,
                      uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> observed(pmf.size(), 0);
  for (int t = 0; t < trials; ++t) {
    const PathObservation obs = engine.SimulatePath(path, src, dst, packets, rng);
    EXPECT_EQ(obs.sent, packets);
    EXPECT_GE(obs.lost, 0);
    EXPECT_LE(obs.lost, packets);
    ++observed[static_cast<size_t>(obs.lost)];
  }
  return GoodnessOfFit(observed, pmf, trials);
}

class PathSamplerTest : public ::testing::Test {
 protected:
  PathSamplerTest()
      : ft_(4),
        path_{ft_.EdgeAggLink(0, 0, 0), ft_.AggCoreLink(0, 0, 0), ft_.AggCoreLink(1, 0, 0),
              ft_.EdgeAggLink(1, 0, 0)},
        src_(ft_.Tor(0, 0)),
        dst_(ft_.Tor(1, 0)) {
    config_.base_loss_rate = 0.01;  // ambient loss large enough to give every port spread
  }

  FailureScenario OneFailure(LinkFailure failure) const {
    failure.link = path_[1];
    FailureScenario scenario;
    scenario.failures.push_back(failure);
    return scenario;
  }

  FlowKey PortFlow(int port) const {
    return FlowKey{src_, dst_, static_cast<uint16_t>(config_.src_port_base + port),
                   config_.dst_port, 17};
  }

  FatTree ft_;
  std::vector<LinkId> path_;
  NodeId src_;
  NodeId dst_;
  ProbeConfig config_;
};

TEST_F(PathSamplerTest, RandomPartialLossIsBinomial) {
  LinkFailure failure;
  failure.type = FailureType::kRandomPartial;
  failure.loss_rate = 0.07;
  const ProbeEngine engine(ft_.topology(), OneFailure(failure), config_);
  for (const int packets : {5, 13, 60}) {
    const double p = 1.0 - engine.FlowSuccessProbability(path_, PortFlow(0));
    const ChiSquare fit = PathLossFit(engine, path_, src_, dst_, packets,
                                      BinomialPmf(packets, p), 20000, 31 + packets);
    EXPECT_TRUE(fit.Passes()) << "packets=" << packets << " chi2=" << fit.statistic
                              << " dof=" << fit.dof;
  }
}

TEST_F(PathSamplerTest, HealthyPathLossIsBinomial) {
  const ProbeEngine engine(ft_.topology(), FailureScenario{}, config_);
  const int packets = 40;
  const double p = 1.0 - engine.FlowSuccessProbability(path_, PortFlow(0));
  const ChiSquare fit =
      PathLossFit(engine, path_, src_, dst_, packets, BinomialPmf(packets, p), 20000, 77);
  EXPECT_TRUE(fit.Passes()) << "chi2=" << fit.statistic << " dof=" << fit.dof;
}

TEST_F(PathSamplerTest, FullLossDropsEveryPacket) {
  LinkFailure failure;
  failure.type = FailureType::kFullLoss;
  const ProbeEngine engine(ft_.topology(), OneFailure(failure), config_);
  Rng rng(3);
  for (int packets = 1; packets <= 40; ++packets) {
    EXPECT_EQ(engine.SimulatePath(path_, src_, dst_, packets, rng).lost, packets);
  }
}

// A deterministic-partial rule blackholes some ports' flows and not others, so the loss
// count is a sum of per-port binomials with different p: its pmf is their convolution.
TEST_F(PathSamplerTest, DeterministicPartialLossIsPerPortConvolution) {
  LinkFailure failure;
  failure.type = FailureType::kDeterministicPartial;
  failure.match_fraction = 0.4;
  failure.rule_seed = 0xfeed;
  const ProbeEngine engine(ft_.topology(), OneFailure(failure), config_);
  const int ports = config_.port_count;
  int blackholed = 0;
  int clean = 0;
  for (int port = 0; port < ports; ++port) {
    const double success = engine.FlowSuccessProbability(path_, PortFlow(port));
    (success == 0.0 ? blackholed : clean) += 1;
  }
  ASSERT_GT(blackholed, 0) << "rule seed must split the port loop";
  ASSERT_GT(clean, 0) << "rule seed must split the port loop";
  for (const int packets : {11, 37}) {
    std::vector<double> pmf{1.0};
    for (int port = 0; port < ports; ++port) {
      const int n = packets / ports + (port < packets % ports ? 1 : 0);
      pmf = Convolve(pmf, BinomialPmf(n, 1.0 - engine.FlowSuccessProbability(
                                                     path_, PortFlow(port))));
    }
    const ChiSquare fit =
        PathLossFit(engine, path_, src_, dst_, packets, pmf, 20000, 500 + packets);
    EXPECT_TRUE(fit.Passes()) << "packets=" << packets << " chi2=" << fit.statistic
                              << " dof=" << fit.dof;
  }
}

// RTT samples SimulatePath records into a sketch, against the same number of per-link
// reference draws (LatencyModel::SampleRttUs plus the gray links' round-trip inflation)
// binned into a sketch of the same shape.
void ExpectRttBinsMatchReference(const FatTree& ft, const std::vector<LinkId>& path,
                                 const FailureScenario& scenario,
                                 const std::vector<double>& load, uint64_t seed) {
  LatencyModelOptions options;
  options.per_hop_base_us = 5.0;
  options.jitter_scale_us = 150.0;  // spreads the samples over many sketch bins
  const LatencyModel model(options);
  ProbeConfig config;
  config.base_loss_rate = 0.0;
  ProbeEngine engine(ft.topology(), scenario, config);
  const int samples_per_path = 500;
  engine.AttachRttObservation(&model, load, samples_per_path);
  double inflation = 0.0;
  for (const LinkFailure& f : scenario.failures) {
    inflation += 2.0 * f.added_delay_us;
  }
  const std::vector<double> reference_load =
      load.empty() ? std::vector<double>(ft.topology().NumLinks(), 0.0) : load;

  Rng rng(seed);
  Rng reference_rng(seed + 1);
  std::map<int, int64_t> simulated;
  std::map<int, int64_t> reference;
  int64_t total = 0;
  for (int call = 0; call < 40; ++call) {
    RttSketch sketch(RttSketch::kDefaultBins);
    const PathObservation obs =
        engine.SimulatePath(path, ft.Tor(0, 0), ft.Tor(1, 0), samples_per_path, rng, &sketch);
    ASSERT_EQ(obs.lost, 0);
    ASSERT_EQ(sketch.total(), samples_per_path);
    sketch.ForEachNonZero([&](int bin, int64_t count) { simulated[bin] += count; });
    total += sketch.total();
  }
  for (int64_t i = 0; i < total; ++i) {
    const double rtt = model.SampleRttUs(path, reference_load, reference_rng) + inflation;
    ++reference[RttSketch::BinOf(static_cast<int64_t>(rtt), RttSketch::kDefaultBins)];
  }
  const ChiSquare fit = Homogeneity(simulated, reference);
  EXPECT_GE(fit.dof, 8) << "samples must spread over the sketch bins";
  EXPECT_TRUE(fit.Passes()) << "chi2=" << fit.statistic << " dof=" << fit.dof;
}

TEST_F(PathSamplerTest, RttBinsMatchPerLinkReferenceUnloaded) {
  ExpectRttBinsMatchReference(ft_, path_, FailureScenario{}, {}, 900);
}

TEST_F(PathSamplerTest, RttBinsMatchPerLinkReferenceWithGrayLink) {
  LinkFailure gray;
  gray.type = FailureType::kLatencyInflation;
  gray.added_delay_us = 120.0;
  ExpectRttBinsMatchReference(ft_, path_, OneFailure(gray), {}, 910);
}

// Links under different loads have different jitter scales: the per-link draw path.
TEST_F(PathSamplerTest, RttBinsMatchPerLinkReferenceUnevenLoad) {
  std::vector<double> load(ft_.topology().NumLinks(), 0.0);
  load[static_cast<size_t>(path_[0])] = 500.0;
  load[static_cast<size_t>(path_[2])] = 850.0;
  ExpectRttBinsMatchReference(ft_, path_, FailureScenario{}, load, 920);
}

}  // namespace
}  // namespace detector
