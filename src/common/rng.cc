#include "src/common/rng.h"

#include <cstdlib>

namespace detector {

int64_t Rng::BinomialInversion(int64_t n, double p) {
  // Sequential search of the CDF from 0 with one uniform u: the draw is the first x whose
  // cumulative mass reaches u, with f(0) = q^n and f(x) = f(x − 1)·(a / x − s).
  const double q = 1.0 - p;
  const double np = static_cast<double>(n) * p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  for (;;) {
    double u = NextDouble();
    // Bernoulli's inequality, q^n >= 1 − n·p: a rare outcome usually ends here, before any
    // transcendental call.
    if (u < 1.0 - np) {
      return 0;
    }
    double f = std::exp(static_cast<double>(n) * std::log1p(-p));
    int64_t x = 0;
    while (u > f) {
      u -= f;
      ++x;
      f *= a / static_cast<double>(x) - s;
      if (x > n || !(f > 0.0)) {
        break;  // rounding left u above the summed mass: redraw
      }
    }
    if (x <= n && u <= f) {
      return x;
    }
  }
}

int64_t Rng::BinomialBtpe(int64_t n, double p) {
  // Algorithm BTPE (Kachitvichyanukul & Schmeiser, "Binomial random variate generation",
  // CACM 31(2), 1988), for n·p >= 30 and p <= 0.5. The hat function is a triangle centred on
  // the mode, two parallelograms beside it and two exponential tails; a point under the
  // triangle is accepted outright, elsewhere by the explicit ratio f(y)/f(m) near the mode
  // and by a squeeze then Stirling's formula far from it.
  const double q = 1.0 - p;
  const double nd = static_cast<double>(n);
  const double npq = nd * p * q;
  const double fm = nd * p + p;
  const int64_t m = static_cast<int64_t>(std::floor(fm));
  const double md = static_cast<double>(m);
  const double p1 = std::floor(2.195 * std::sqrt(npq) - 4.6 * q) + 0.5;
  const double xm = md + 0.5;
  const double xl = xm - p1;
  const double xr = xm + p1;
  const double c = 0.134 + 20.5 / (15.3 + md);
  const double al = (fm - xl) / (fm - xl * p);
  const double lambda_l = al * (1.0 + 0.5 * al);
  const double ar = (xr - fm) / (xr * q);
  const double lambda_r = ar * (1.0 + 0.5 * ar);
  const double p2 = p1 * (1.0 + 2.0 * c);
  const double p3 = p2 + c / lambda_l;
  const double p4 = p3 + c / lambda_r;

  for (;;) {
    const double u = NextDouble() * p4;
    double v = NextDouble();
    int64_t y = 0;
    if (u <= p1) {
      // Triangle: always under the density.
      return static_cast<int64_t>(std::floor(xm - p1 * v + u));
    }
    if (u <= p2) {
      // Parallelograms.
      const double x = xl + (u - p1) / c;
      v = v * c + 1.0 - std::fabs(md - x + 0.5) / p1;
      if (v > 1.0) {
        continue;
      }
      y = static_cast<int64_t>(std::floor(x));
    } else if (u <= p3) {
      // Left exponential tail.
      if (v == 0.0) {
        continue;
      }
      const double x = std::floor(xl + std::log(v) / lambda_l);
      if (x < 0.0) {
        continue;
      }
      y = static_cast<int64_t>(x);
      v = v * (u - p2) * lambda_l;
    } else {
      // Right exponential tail.
      if (v == 0.0) {
        continue;
      }
      const double x = std::floor(xr - std::log(v) / lambda_r);
      if (x > nd) {
        continue;
      }
      y = static_cast<int64_t>(x);
      v = v * (u - p3) * lambda_r;
    }

    const int64_t k = std::llabs(y - m);
    const double kd = static_cast<double>(k);
    if (k <= 20 || kd >= npq / 2.0 - 1.0) {
      // Near the mode: f(y)/f(m) by the pmf recurrence.
      const double s = p / q;
      const double a = s * (nd + 1.0);
      double f = 1.0;
      if (m < y) {
        for (int64_t i = m + 1; i <= y; ++i) {
          f *= a / static_cast<double>(i) - s;
        }
      } else if (m > y) {
        for (int64_t i = y + 1; i <= m; ++i) {
          f /= a / static_cast<double>(i) - s;
        }
      }
      if (v <= f) {
        return y;
      }
      continue;
    }

    // Squeeze: bounds on log(f(y)/f(m)) from the normal approximation.
    const double rho = (kd / npq) * ((kd * (kd / 3.0 + 0.625) + 1.0 / 6.0) / npq + 0.5);
    const double t = -kd * kd / (2.0 * npq);
    const double log_v = std::log(v);
    if (log_v < t - rho) {
      return y;
    }
    if (log_v > t + rho) {
      continue;
    }
    // Final test: log(f(y)/f(m)) by Stirling's formula, log(x − 1)! = (x − ½)·log x − x +
    // ½·log 2π + stirling(x). The correction terms enter with the signs of their factorials:
    // + for m! and (n − m)!, − for y! and (n − y)!.
    const double x1 = static_cast<double>(y + 1);
    const double f1 = md + 1.0;
    const double z = nd + 1.0 - md;
    const double w = nd - static_cast<double>(y) + 1.0;
    auto stirling = [](double x) {
      const double x2 = x * x;
      return (13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0;
    };
    const double bound = xm * std::log(f1 / x1) + (nd - md + 0.5) * std::log(z / w) +
                         static_cast<double>(y - m) * std::log(w * p / (x1 * q)) +
                         stirling(f1) + stirling(z) - stirling(x1) - stirling(w);
    if (log_v <= bound) {
      return y;
    }
  }
}

}  // namespace detector
