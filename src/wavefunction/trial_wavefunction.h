// TrialWaveFunction: the Slater-Jastrow product (paper Eq. 2).
//
// Thin orchestration over the components: log values add, ratios
// multiply (Eq. 4: exp(dJ1) exp(dJ2) det|A'|/det|A|), and the
// per-particle gradient/laplacian accumulators G and L feed the local
// energy (Eq. 7). One instance exists per OpenMP thread (Fig. 4), and
// the walker-buffer protocol streams all component state in and out of
// the anonymous per-walker buffer.
#ifndef QMCXX_WAVEFUNCTION_TRIAL_WAVEFUNCTION_H
#define QMCXX_WAVEFUNCTION_TRIAL_WAVEFUNCTION_H

#include <algorithm>
#include <memory>
#include <vector>

#include "particle/walker.h"
#include "wavefunction/wavefunction_component.h"

namespace qmcxx
{

template<typename TR>
class TrialWaveFunction
{
public:
  using Grad = TinyVector<double, 3>;
  using Pos = TinyVector<double, 3>;

  explicit TrialWaveFunction(int num_particles) : g_(num_particles), l_(num_particles) {}

  void add_component(std::unique_ptr<WaveFunctionComponent<TR>> c)
  {
    components_.push_back(std::move(c));
  }
  int num_components() const { return static_cast<int>(components_.size()); }

  /// Per-thread clone (paper Fig. 4, "TrialWaveFunction Psi_th(Psi)").
  std::unique_ptr<TrialWaveFunction<TR>> clone() const
  {
    auto c = std::make_unique<TrialWaveFunction<TR>>(static_cast<int>(g_.size()));
    for (const auto& comp : components_)
      c->add_component(comp->clone());
    return c;
  }
  WaveFunctionComponent<TR>& component(int i) { return *components_[i]; }

  /// Full evaluation from scratch; P must be update()d first.
  double evaluate_log(ParticleSet<TR>& p)
  {
    zero_gl();
    log_value_ = 0.0;
    for (auto& c : components_)
      log_value_ += c->evaluate_log(p, g_, l_);
    return log_value_;
  }

  /// Gradient of log psi at the current position of particle k (drift).
  Grad eval_grad(ParticleSet<TR>& p, int k)
  {
    Grad g{};
    for (auto& c : components_)
      g += c->eval_grad(p, k);
    return g;
  }

  /// Value-only ratio for the proposed move (NLPP path).
  [[nodiscard]] double calc_ratio(ParticleSet<TR>& p, int k)
  {
    FullPrecReal r = 1.0;
    for (auto& c : components_)
      r *= c->ratio(p, k);
    return r;
  }

  /// Value-only ratios for a fan of nr virtual positions of particle k
  /// (the NLPP angular quadrature): ratios[q] = psi(r_q)/psi(R). The
  /// particle set computes each position's table rows once, then every
  /// component sees the whole fan (J1/J2 read the virtual rows, the
  /// determinants batch the SPO evaluation); per-position products
  /// accumulate in component order, so every ratios[q] is bitwise
  /// identical to the scalar make_move/calc_ratio/reject_move sequence.
  void calc_ratios(ParticleSet<TR>& p, int k, const Pos* vpos, int nr, double* ratios)
  {
    p.make_virtual_moves(k, vpos, nr);
    for (int q = 0; q < nr; ++q)
      ratios[q] = 1.0;
    if (ratio_fan_scratch_.size() < static_cast<std::size_t>(nr))
      ratio_fan_scratch_.resize(static_cast<std::size_t>(nr));
    for (auto& c : components_)
    {
      c->ratios_virtual(p, k, vpos, nr, ratio_fan_scratch_.data());
      for (int q = 0; q < nr; ++q)
        ratios[q] *= ratio_fan_scratch_[q];
    }
  }

  /// Ratio and gradient of log psi at the proposed position. Not
  /// [[nodiscard]]: callers may invoke it purely to stage component
  /// state for accept_move (the ratio is a by-product there).
  double calc_ratio_grad(ParticleSet<TR>& p, int k, Grad& grad)
  {
    FullPrecReal r = 1.0;
    grad = Grad{};
    for (auto& c : components_)
    {
      Grad gc{};
      r *= c->ratio_grad(p, k, gc);
      grad += gc;
    }
    return r;
  }

  /// Commit: components first (they may read pre-update table rows),
  /// then the particle set.
  void accept_move(ParticleSet<TR>& p, int k)
  {
    for (auto& c : components_)
      c->accept_move(p, k);
    p.accept_move(k);
  }

  void reject_move(ParticleSet<TR>& p, int k)
  {
    for (auto& c : components_)
      c->reject_move(k);
    p.reject_move(k);
  }

  /// Refresh G and L from component internal state after a PbyP sweep
  /// (no recomputation of pair quantities).
  void evaluate_gl(ParticleSet<TR>& p)
  {
    zero_gl();
    log_value_ = 0.0;
    for (auto& c : components_)
    {
      c->evaluate_gl(p, g_, l_);
      log_value_ += c->log_value();
    }
  }

  /// Inverse-drift guard sweep (paper Sec. 7.2): every component gets
  /// the hook (only determinants do work), accumulating into `rep`. A
  /// fired refresh replaces a component's log value wholesale, so the
  /// cached product log is re-synced before update_buffer writes it
  /// into the walker record.
  void monitor_inverse_drift(ParticleSet<TR>& p, const PrecisionPolicy& pol, int gen,
                             InverseDriftReport& rep)
  {
    const std::uint64_t before = rep.refreshes;
    for (auto& c : components_)
      c->monitor_inverse_drift(p, pol, gen, rep);
    if (rep.refreshes != before)
      log_value_ = log_value();
  }

  /// Sum of component log values: stays current through accepted moves
  /// (each component maintains its own log under the PbyP protocol).
  [[nodiscard]] double log_value() const
  {
    FullPrecReal s = 0.0;
    for (const auto& c : components_)
      s += c->log_value();
    return s;
  }
  const std::vector<Grad>& g() const { return g_; }
  const std::vector<double>& l() const { return l_; }

  /// Kinetic energy -1/2 sum_i (L_i + |G_i|^2) from the accumulators.
  double kinetic_energy() const
  {
    FullPrecReal ke = 0.0;
    for (std::size_t i = 0; i < l_.size(); ++i)
      ke += l_[i] + dot(g_[i], g_[i]);
    return -0.5 * ke;
  }

  // ---- walker-buffer protocol -----------------------------------------
  void register_data(PooledBuffer& buf)
  {
    for (auto& c : components_)
      c->register_data(buf);
  }

  void update_buffer(Walker& w)
  {
    w.buffer.rewind();
    for (auto& c : components_)
      c->update_buffer(w.buffer);
    w.log_psi = log_value_;
  }

  void copy_from_buffer(ParticleSet<TR>& p, Walker& w)
  {
    w.buffer.rewind();
    log_value_ = 0.0;
    for (auto& c : components_)
    {
      c->copy_from_buffer(p, w.buffer);
      log_value_ += c->log_value();
    }
  }

  // ---- multi-walker (crowd) batched API ---------------------------------
  // Static orchestration over parallel lists of per-walker objects:
  // twf_list[iw] operates on p_list[iw]. For each component slot the
  // leader's mw_* override runs once for the whole crowd; `res` carries
  // the per-component crowd resources plus the reduction scratch and
  // must come from make_mw_resources on an identically composed
  // wavefunction.

  /// One resource slot per component (the batched acquire handshake),
  /// sized for a crowd of num_walkers.
  MWResourceSet make_mw_resources(int num_walkers) const
  {
    MWResourceSet rs;
    for (const auto& c : components_)
      rs.per_component.push_back(c->make_mw_resource(num_walkers));
    rs.ratio_scratch.resize(num_walkers);
    rs.grad_scratch.resize(num_walkers);
    return rs;
  }

  static void mw_evaluate_log(const RefVector<TrialWaveFunction<TR>>& twf_list,
                              const RefVector<ParticleSet<TR>>& p_list, MWResourceSet& res)
  {
    const std::size_t nw = twf_list.size();
    RefVector<std::vector<Grad>> g_list;
    RefVector<std::vector<double>> l_list;
    for (std::size_t iw = 0; iw < nw; ++iw)
    {
      TrialWaveFunction<TR>& twf = twf_list[iw];
      twf.zero_gl();
      g_list.push_back(twf.g_);
      l_list.push_back(twf.l_);
    }
    const int nc = twf_list[0].get().num_components();
    RefVector<WaveFunctionComponent<TR>> comp_list;
    for (int c = 0; c < nc; ++c)
    {
      gather_component(twf_list, c, comp_list);
      comp_list[0].get().mw_evaluate_log(comp_list, p_list, g_list, l_list, res.get(c));
    }
    for (std::size_t iw = 0; iw < nw; ++iw)
      twf_list[iw].get().log_value_ = twf_list[iw].get().log_value();
  }

  static void mw_eval_grad(const RefVector<TrialWaveFunction<TR>>& twf_list,
                           const RefVector<ParticleSet<TR>>& p_list, int k, Grad* grads)
  {
    for (std::size_t iw = 0; iw < twf_list.size(); ++iw)
      grads[iw] = twf_list[iw].get().eval_grad(p_list[iw].get(), k);
  }

  /// Batched ratio and gradient for the proposed move of particle k:
  /// ratios multiply and gradients add across components, with each
  /// component evaluated crowd-at-a-time. Fills entries [0, nw) of
  /// `ratios`/`grads`, growing them if needed but never shrinking them:
  /// they are a crowd's capacity-sized workspace, and a later, fuller
  /// slice indexes past a shrunk size.
  static void mw_ratio_grad(const RefVector<TrialWaveFunction<TR>>& twf_list,
                            const RefVector<ParticleSet<TR>>& p_list, int k,
                            std::vector<double>& ratios, std::vector<Grad>& grads,
                            MWResourceSet& res)
  {
    const std::size_t nw = twf_list.size();
    if (ratios.size() < nw)
      ratios.resize(nw);
    if (grads.size() < nw)
      grads.resize(nw);
    std::fill_n(ratios.begin(), nw, 1.0);
    std::fill_n(grads.begin(), nw, Grad{});
    const int nc = twf_list[0].get().num_components();
    RefVector<WaveFunctionComponent<TR>> comp_list;
    for (int c = 0; c < nc; ++c)
    {
      gather_component(twf_list, c, comp_list);
      comp_list[0].get().mw_ratio_grad(comp_list, p_list, k, res.ratio_scratch.data(),
                                       res.grad_scratch.data(), res.get(c));
      for (std::size_t iw = 0; iw < nw; ++iw)
      {
        ratios[iw] *= res.ratio_scratch[iw];
        grads[iw] += res.grad_scratch[iw];
      }
    }
  }

  /// Batched commit: components first (they may read pre-update table
  /// rows), then the particle sets -- the same ordering as the scalar
  /// accept_move/reject_move pair.
  static void mw_accept_reject(const RefVector<TrialWaveFunction<TR>>& twf_list,
                               const RefVector<ParticleSet<TR>>& p_list, int k,
                               const std::vector<char>& is_accepted, MWResourceSet& res)
  {
    const int nc = twf_list[0].get().num_components();
    RefVector<WaveFunctionComponent<TR>> comp_list;
    for (int c = 0; c < nc; ++c)
    {
      gather_component(twf_list, c, comp_list);
      comp_list[0].get().mw_accept_reject(comp_list, p_list, k, is_accepted, res.get(c));
    }
    ParticleSet<TR>::mw_accept_reject(p_list, k, is_accepted);
  }

  /// Batched G/L refresh from component internal state after a sweep.
  static void mw_evaluate_gl(const RefVector<TrialWaveFunction<TR>>& twf_list,
                             const RefVector<ParticleSet<TR>>& p_list, MWResourceSet& res)
  {
    const std::size_t nw = twf_list.size();
    RefVector<std::vector<Grad>> g_list;
    RefVector<std::vector<double>> l_list;
    for (std::size_t iw = 0; iw < nw; ++iw)
    {
      TrialWaveFunction<TR>& twf = twf_list[iw];
      twf.zero_gl();
      g_list.push_back(twf.g_);
      l_list.push_back(twf.l_);
    }
    const int nc = twf_list[0].get().num_components();
    RefVector<WaveFunctionComponent<TR>> comp_list;
    for (int c = 0; c < nc; ++c)
    {
      gather_component(twf_list, c, comp_list);
      comp_list[0].get().mw_evaluate_gl(comp_list, p_list, g_list, l_list, res.get(c));
    }
    for (std::size_t iw = 0; iw < nw; ++iw)
      twf_list[iw].get().log_value_ = twf_list[iw].get().log_value();
  }

private:
  static void gather_component(const RefVector<TrialWaveFunction<TR>>& twf_list, int c,
                               RefVector<WaveFunctionComponent<TR>>& comp_list)
  {
    comp_list.clear();
    for (const auto& twf : twf_list)
      comp_list.push_back(*twf.get().components_[c]);
  }

  void zero_gl()
  {
    for (auto& gi : g_)
      gi = Grad{};
    for (auto& li : l_)
      li = 0.0;
  }

  std::vector<std::unique_ptr<WaveFunctionComponent<TR>>> components_;
  std::vector<Grad> g_;
  std::vector<double> l_;
  std::vector<double> ratio_fan_scratch_; // per-component fan ratios (calc_ratios)
  FullPrecReal log_value_ = 0.0;
};

} // namespace qmcxx

#endif
