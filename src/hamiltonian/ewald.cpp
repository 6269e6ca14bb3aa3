#include "hamiltonian/ewald.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "config/config.h"

namespace qmcxx
{
namespace
{

/// e^{i p (b . r)} for p in [-m, m] into row[p + m]: one cos/sin pair
/// and a complex recurrence, the arithmetic every phase table uses.
void phase_row(const TinyVector<double, 3>& b, const TinyVector<double, 3>& r, int m,
               std::complex<double>* row)
{
  const double phase = dot(b, r);
  const std::complex<double> step(std::cos(phase), std::sin(phase));
  std::complex<double> cur(1.0, 0.0);
  row[m] = cur;
  for (int p = 1; p <= m; ++p)
  {
    cur *= step;
    row[m + p] = cur;
    row[m - p] = std::conj(cur);
  }
}

/// Per-particle tables of e^{i n (b_j . r)} for n in [-m_j, m_j], one
/// axis at a time. Because every k-vector is an integer combination of
/// the reciprocal rows, the structure factor for any k is a product of
/// three table entries -- no trig calls in the k loop.
struct PhaseTables
{
  // tab[axis][particle * (2*m+1) + (n + m)]
  int m[3];
  std::vector<std::complex<double>> tab[3];

  void build(const std::array<TinyVector<double, 3>, 3>& b, const int mm[3],
             const std::vector<TinyVector<double, 3>>& r)
  {
    const std::size_t n = r.size();
    for (int axis = 0; axis < 3; ++axis)
    {
      m[axis] = mm[axis];
      const int width = 2 * mm[axis] + 1;
      tab[axis].resize(n * width);
      for (std::size_t i = 0; i < n; ++i)
        phase_row(b[axis], r[i], mm[axis], tab[axis].data() + i * width);
    }
  }

  std::complex<double> phase(std::size_t i, int n0, int n1, int n2) const
  {
    const int w0 = 2 * m[0] + 1, w1 = 2 * m[1] + 1, w2 = 2 * m[2] + 1;
    return tab[0][i * w0 + (n0 + m[0])] * tab[1][i * w1 + (n1 + m[1])] *
        tab[2][i * w2 + (n2 + m[2])];
  }
};

} // namespace

EwaldSum::EwaldSum(const Lattice& lattice, double tolerance) : lattice_(lattice)
{
  rcut_ = lattice.wigner_seitz_radius();
  // Choose alpha so the real-space sum is converged at the Wigner-Seitz
  // radius: erfc(a r) ~ exp(-(a r)^2) ~ tolerance.
  const double log_tol = -std::log(tolerance);
  alpha_ = std::sqrt(log_tol) / rcut_;
  // Reciprocal cutoff: exp(-k^2 / 4 a^2) ~ tolerance.
  const double kmax = 2.0 * alpha_ * std::sqrt(log_tol);

  const auto& b = lattice.reciprocal_rows();
  mmax_[0] = static_cast<int>(std::ceil(kmax / norm(b[0])));
  mmax_[1] = static_cast<int>(std::ceil(kmax / norm(b[1])));
  mmax_[2] = static_cast<int>(std::ceil(kmax / norm(b[2])));
  const double two_pi_over_v = 2.0 * M_PI / lattice.volume();
  for (int n0 = -mmax_[0]; n0 <= mmax_[0]; ++n0)
    for (int n1 = -mmax_[1]; n1 <= mmax_[1]; ++n1)
      for (int n2 = -mmax_[2]; n2 <= mmax_[2]; ++n2)
      {
        if (n0 == 0 && n1 == 0 && n2 == 0)
          continue;
        const Pos k = static_cast<double>(n0) * b[0] + static_cast<double>(n1) * b[1] +
            static_cast<double>(n2) * b[2];
        const double k2 = norm2(k);
        if (k2 > kmax * kmax)
          continue;
        kindex_.push_back({n0, n1, n2});
        kfac_.push_back(two_pi_over_v * std::exp(-k2 / (4.0 * alpha_ * alpha_)) / k2);
      }
  for (const auto& k : kindex_)
  {
    if (kruns_.empty() || kruns_.back().n0 != k[0] || kruns_.back().n1 != k[1] ||
        kruns_.back().n2 + kruns_.back().len != k[2])
      kruns_.push_back({k[0], k[1], k[2], 0});
    ++kruns_.back().len;
  }

  // FNV-1a over everything a structure factor depends on.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* c = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i)
      h = (h ^ c[i]) * 1099511628211ull;
  };
  mix(b.data(), sizeof(b));
  mix(mmax_, sizeof(mmax_));
  mix(kindex_.data(), kindex_.size() * sizeof(kindex_[0]));
  kset_key_ = h;
}

double EwaldSum::real_space_pair(const Pos& a, const Pos& b) const
{
  const double r = norm(lattice_.min_image(b - a));
  if (r >= rcut_)
    return 0.0;
  return std::erfc(alpha_ * r) / r;
}

double EwaldSum::energy(const std::vector<Pos>& r, const std::vector<double>& q) const
{
  const std::size_t n = r.size();
  double e_real = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      e_real += q[i] * q[j] * real_space_pair(r[i], r[j]);
  return e_real + kspace_energy(r, q) + self_background(q);
}

double EwaldSum::kspace_energy(const std::vector<Pos>& r, const std::vector<double>& q) const
{
  PhaseTables tables;
  tables.build(lattice_.reciprocal_rows(), mmax_, r);
  double e_recip = 0.0;
  for (std::size_t kk = 0; kk < kindex_.size(); ++kk)
  {
    std::complex<double> rho(0.0, 0.0);
    for (std::size_t i = 0; i < r.size(); ++i)
      rho += q[i] * tables.phase(i, kindex_[kk][0], kindex_[kk][1], kindex_[kk][2]);
    e_recip += kfac_[kk] * std::norm(rho);
  }
  return e_recip;
}

template<typename TR>
void EwaldSum::structure_factor(const TR* xs, const TR* ys, const TR* zs, std::size_t n, double q,
                                double* rho_re, double* rho_im) const
{
  std::fill(rho_re, rho_re + kindex_.size(), 0.0);
  std::fill(rho_im, rho_im + kindex_.size(), 0.0);
  const auto& b = lattice_.reciprocal_rows();
  std::vector<std::complex<double>> row[3];
  for (int axis = 0; axis < 3; ++axis)
    row[axis].resize(2 * mmax_[axis] + 1);
  std::vector<double> c_re(row[2].size()), c_im(row[2].size());
  for (std::size_t i = 0; i < n; ++i)
  {
    const Pos r{static_cast<double>(xs[i]), static_cast<double>(ys[i]),
                static_cast<double>(zs[i])};
    for (int axis = 0; axis < 3; ++axis)
      phase_row(b[axis], r, mmax_[axis], row[axis].data());
    for (std::size_t p = 0; p < row[2].size(); ++p)
    {
      c_re[p] = row[2][p].real();
      c_im[p] = row[2][p].imag();
    }
    std::size_t kk = 0;
    for (const KRun& run : kruns_)
    {
      // PhaseTables::phase is (t0 * t1) * t2 with std::complex's
      // (ac - bd, ad + bc); written out, so the k loop vectorizes.
      const std::complex<double> t0 = row[0][run.n0 + mmax_[0]];
      const std::complex<double> t1 = row[1][run.n1 + mmax_[1]];
      const FullPrecReal p_re = t0.real() * t1.real() - t0.imag() * t1.imag();
      const FullPrecReal p_im = t0.real() * t1.imag() + t0.imag() * t1.real();
      const double* __restrict cr = c_re.data() + (run.n2 + mmax_[2]);
      const double* __restrict ci = c_im.data() + (run.n2 + mmax_[2]);
      double* __restrict sr = rho_re + kk;
      double* __restrict si = rho_im + kk;
#pragma omp simd
      for (int j = 0; j < run.len; ++j)
      {
        sr[j] += q * (p_re * cr[j] - p_im * ci[j]);
        si[j] += q * (p_re * ci[j] + p_im * cr[j]);
      }
      kk += run.len;
    }
  }
}

template void EwaldSum::structure_factor<float>(const float*, const float*, const float*,
                                                std::size_t, double, double*, double*) const;
template void EwaldSum::structure_factor<double>(const double*, const double*, const double*,
                                                 std::size_t, double, double*, double*) const;

double EwaldSum::kspace_energy(const double* rho_re, const double* rho_im) const
{
  double e_recip = 0.0;
  for (std::size_t kk = 0; kk < kindex_.size(); ++kk)
    e_recip += kfac_[kk] * (rho_re[kk] * rho_re[kk] + rho_im[kk] * rho_im[kk]);
  return e_recip;
}

double EwaldSum::self_background(const std::vector<double>& q) const
{
  double q_sum = 0.0, q2_sum = 0.0;
  for (double qi : q)
  {
    q_sum += qi;
    q2_sum += qi * qi;
  }
  const double e_self = alpha_ / std::sqrt(M_PI) * q2_sum;
  const double e_background =
      -M_PI / (2.0 * lattice_.volume() * alpha_ * alpha_) * q_sum * q_sum;
  return -e_self + e_background;
}

EwaldSum::FixedSetFactors EwaldSum::precompute_fixed_set(const std::vector<Pos>& rb,
                                                         const std::vector<double>& qb) const
{
  FixedSetFactors out;
  for (double q : qb)
    out.q_sum += q;
  PhaseTables tb;
  tb.build(lattice_.reciprocal_rows(), mmax_, rb);
  out.rho_re.resize(kindex_.size());
  out.rho_im.resize(kindex_.size());
  for (std::size_t kk = 0; kk < kindex_.size(); ++kk)
  {
    std::complex<double> rho(0.0, 0.0);
    for (std::size_t j = 0; j < rb.size(); ++j)
      rho += qb[j] * tb.phase(j, kindex_[kk][0], kindex_[kk][1], kindex_[kk][2]);
    out.rho_re[kk] = rho.real();
    out.rho_im[kk] = rho.imag();
  }
  return out;
}

double EwaldSum::interaction_kspace_cached(const std::vector<Pos>& ra,
                                           const std::vector<double>& qa,
                                           const FixedSetFactors& fixed) const
{
  PhaseTables ta;
  ta.build(lattice_.reciprocal_rows(), mmax_, ra);
  double e_recip = 0.0;
  for (std::size_t kk = 0; kk < kindex_.size(); ++kk)
  {
    std::complex<double> rho_a(0.0, 0.0);
    for (std::size_t i = 0; i < ra.size(); ++i)
      rho_a += qa[i] * ta.phase(i, kindex_[kk][0], kindex_[kk][1], kindex_[kk][2]);
    e_recip += kfac_[kk] * 2.0 *
        (rho_a.real() * fixed.rho_re[kk] + rho_a.imag() * fixed.rho_im[kk]);
  }

  double qa_sum = 0.0;
  for (double qi : qa)
    qa_sum += qi;
  const double e_background =
      -M_PI / (lattice_.volume() * alpha_ * alpha_) * qa_sum * fixed.q_sum;
  return e_recip + e_background;
}

double EwaldSum::interaction_kspace(const double* rho_re, const double* rho_im, double qa_sum,
                                    const FixedSetFactors& fixed) const
{
  double e_recip = 0.0;
  for (std::size_t kk = 0; kk < kindex_.size(); ++kk)
    e_recip += kfac_[kk] * 2.0 * (rho_re[kk] * fixed.rho_re[kk] + rho_im[kk] * fixed.rho_im[kk]);
  const double e_background =
      -M_PI / (lattice_.volume() * alpha_ * alpha_) * qa_sum * fixed.q_sum;
  return e_recip + e_background;
}

double EwaldSum::interaction_energy(const std::vector<Pos>& ra, const std::vector<double>& qa,
                                    const std::vector<Pos>& rb,
                                    const std::vector<double>& qb) const
{
  double e_real = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i)
    for (std::size_t j = 0; j < rb.size(); ++j)
      e_real += qa[i] * qb[j] * real_space_pair(ra[i], rb[j]);

  PhaseTables ta, tb;
  ta.build(lattice_.reciprocal_rows(), mmax_, ra);
  tb.build(lattice_.reciprocal_rows(), mmax_, rb);
  double e_recip = 0.0;
  for (std::size_t kk = 0; kk < kindex_.size(); ++kk)
  {
    std::complex<double> rho_a(0.0, 0.0), rho_b(0.0, 0.0);
    for (std::size_t i = 0; i < ra.size(); ++i)
      rho_a += qa[i] * ta.phase(i, kindex_[kk][0], kindex_[kk][1], kindex_[kk][2]);
    for (std::size_t j = 0; j < rb.size(); ++j)
      rho_b += qb[j] * tb.phase(j, kindex_[kk][0], kindex_[kk][1], kindex_[kk][2]);
    e_recip += kfac_[kk] * 2.0 *
        (rho_a.real() * rho_b.real() + rho_a.imag() * rho_b.imag());
  }

  double qa_sum = 0.0, qb_sum = 0.0;
  for (double qi : qa)
    qa_sum += qi;
  for (double qj : qb)
    qb_sum += qj;
  const double e_background =
      -M_PI / (lattice_.volume() * alpha_ * alpha_) * qa_sum * qb_sum;
  return e_real + e_recip + e_background;
}

} // namespace qmcxx
