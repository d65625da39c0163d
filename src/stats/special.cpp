#include "stats/special.hpp"

#include <cmath>
#include <stdexcept>

namespace psmgen::stats {

namespace {

/// ln|Gamma(x)|. glibc's lgamma also stores the sign of Gamma(x) in the
/// global `signgam`, a data race when the merge tests run on pool
/// threads; lgamma_r is the same computation with the sign kept local.
double lnGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

// Continued-fraction evaluation of the incomplete beta (Lentz's method).
double betaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double incompleteBeta(double a, double b, double x) {
  if (a <= 0.0 || b <= 0.0) {
    throw std::invalid_argument("incompleteBeta: a and b must be positive");
  }
  if (x < 0.0 || x > 1.0) {
    throw std::invalid_argument("incompleteBeta: x must be in [0,1]");
  }
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = lnGamma(a + b) - lnGamma(a) - lnGamma(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double studentTCdf(double t, double dof) {
  if (dof <= 0.0) {
    throw std::invalid_argument("studentTCdf: dof must be positive");
  }
  if (std::isinf(t)) return t > 0 ? 1.0 : 0.0;
  const double x = dof / (dof + t * t);
  const double p = 0.5 * incompleteBeta(dof / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - p : p;
}

double twoSidedTPValue(double t, double dof) {
  if (dof <= 0.0) {
    throw std::invalid_argument("twoSidedTPValue: dof must be positive");
  }
  if (std::isinf(t)) return 0.0;
  const double x = dof / (dof + t * t);
  return incompleteBeta(dof / 2.0, 0.5, x);
}

}  // namespace psmgen::stats
