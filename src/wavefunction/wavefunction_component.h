// Abstract orbital component of the trial wavefunction.
//
// The Slater-Jastrow form Psi_T = exp(J1) exp(J2) D_u D_d (paper Eq. 2)
// is a product, so every component supplies a log value, per-move ratios
// (Eq. 4), gradients for the quantum drift, accept/reject hooks for the
// PbyP update, and the walker-buffer protocol that serializes its
// internal state into the anonymous per-walker buffer (paper Fig. 4).
#ifndef QMCXX_WAVEFUNCTION_WAVEFUNCTION_COMPONENT_H
#define QMCXX_WAVEFUNCTION_WAVEFUNCTION_COMPONENT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "containers/mw_types.h"
#include "containers/pooled_buffer.h"
#include "containers/tiny_vector.h"
#include "particle/particle_set.h"

namespace qmcxx
{

/// Per-walker tally of the inverse-drift guard (paper Sec. 7.2): the
/// worst sampled residual ||psi_row . A^-1 - e_k||_inf seen this
/// generation, how many rows were sampled, and how many from-scratch
/// refreshes fired. Accumulated in FullPrecReal; reduced into
/// GenerationStats by the driver.
struct InverseDriftReport
{
  FullPrecReal max_residual = 0.0;
  std::uint64_t rows_sampled = 0;
  std::uint64_t refreshes = 0;
};

template<typename TR>
class WaveFunctionComponent
{
public:
  using Pos = TinyVector<double, 3>;
  using Grad = TinyVector<double, 3>;

  virtual ~WaveFunctionComponent() = default;

  virtual std::string name() const = 0;

  /// Fresh component of the same kind for a per-thread clone; shares
  /// read-only data (functors, spline tables), allocates private state.
  virtual std::unique_ptr<WaveFunctionComponent<TR>> clone() const = 0;

  /// Full evaluation from scratch (always in double): returns
  /// log|component| and accumulates per-particle gradients and
  /// laplacians of log psi into G and L.
  virtual double evaluate_log(ParticleSet<TR>& p, std::vector<Grad>& g,
                              std::vector<double>& l) = 0;

  /// Value-only ratio psi(R')/psi(R) for the proposed move of particle k
  /// (used by the non-local pseudopotential, Sec. 3).
  [[nodiscard]] virtual double ratio(ParticleSet<TR>& p, int k) = 0;

  /// Value-only ratios for a fan of nr virtual positions of particle k
  /// (the NLPP angular quadrature, Sec. 3): ratios[q] receives
  /// psi(r_q)/psi(R), bitwise what make_move(k, vpos[q]) followed by
  /// ratio() would return. The caller has filled the particle set's
  /// virtual rows for the fan (ParticleSet::make_virtual_moves), so
  /// table-reading components take each ratio from those rows; the
  /// determinants batch the positions through SPOSet::mw_evaluate_v.
  /// No move is staged afterwards, as after reject_move.
  virtual void ratios_virtual(ParticleSet<TR>& p, int k, const Pos* vpos, int nr,
                              double* ratios) = 0;

  /// Ratio plus gradient of log psi at the proposed position.
  virtual double ratio_grad(ParticleSet<TR>& p, int k, Grad& grad) = 0;

  /// Gradient of log psi at the current position of particle k (drift).
  [[nodiscard]] virtual Grad eval_grad(ParticleSet<TR>& p, int k) = 0;

  virtual void accept_move(ParticleSet<TR>& p, int k) = 0;
  virtual void reject_move(int k) = 0;

  /// Accumulate G and L from the component's current internal state
  /// (after a sweep, without recomputation).
  virtual void evaluate_gl(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) = 0;

  // ---- anonymous walker-buffer protocol (paper Fig. 4) -----------------
  virtual void register_data(PooledBuffer& buf) = 0;
  virtual void update_buffer(PooledBuffer& buf) = 0;
  virtual void copy_from_buffer(ParticleSet<TR>& p, PooledBuffer& buf) = 0;

  /// Inverse-drift guard hook (paper Sec. 7.2): sample rows of any
  /// internal inverse, accumulate the FullPrecReal residual into `rep`,
  /// and refresh from scratch when `pol` says so. Row selection must
  /// derive from `gen` only (never per-slot state) so chains stay
  /// bitwise-identical across crowd/thread decompositions. Default:
  /// no-op -- only components that maintain an inverse participate.
  virtual void monitor_inverse_drift(ParticleSet<TR>& p, const PrecisionPolicy& pol, int gen,
                                     InverseDriftReport& rep)
  {
    (void)p;
    (void)pol;
    (void)gen;
    (void)rep;
  }

  // ---- multi-walker (crowd) batched API --------------------------------
  // Each mw_* call is made once per crowd on the leader (wfc_list[0]);
  // wfc_list[iw] operates on p_list[iw], all lists have one entry per
  // walker. The defaults below are flat-virtual fallbacks that loop the
  // scalar path, so every component participates in the crowd protocol
  // unchanged; components with cross-walker work to amortize
  // (DiracDeterminant batching the SPO evaluation) override them.
  //
  // `resource` is the component's per-crowd scratch from
  // make_mw_resource, threaded through by the caller; nullptr is always
  // legal and selects the fallback.

  /// Per-crowd scratch for the batched overrides; default none.
  virtual std::unique_ptr<MWResource> make_mw_resource(int num_walkers) const
  {
    (void)num_walkers;
    return nullptr;
  }

  virtual void mw_evaluate_log(const RefVector<WaveFunctionComponent<TR>>& wfc_list,
                               const RefVector<ParticleSet<TR>>& p_list,
                               const RefVector<std::vector<Grad>>& g_list,
                               const RefVector<std::vector<double>>& l_list, MWResource* resource)
  {
    (void)resource;
    for (std::size_t iw = 0; iw < wfc_list.size(); ++iw)
      wfc_list[iw].get().evaluate_log(p_list[iw].get(), g_list[iw].get(), l_list[iw].get());
  }

  /// ratios[iw] and grads[iw] receive this component's contribution for
  /// walker iw's proposed move of particle k (same contract as the
  /// scalar ratio_grad).
  virtual void mw_ratio_grad(const RefVector<WaveFunctionComponent<TR>>& wfc_list,
                             const RefVector<ParticleSet<TR>>& p_list, int k, double* ratios,
                             Grad* grads, MWResource* resource)
  {
    (void)resource;
    for (std::size_t iw = 0; iw < wfc_list.size(); ++iw)
    {
      grads[iw] = Grad{};
      ratios[iw] = wfc_list[iw].get().ratio_grad(p_list[iw].get(), k, grads[iw]);
    }
  }

  /// Commit or abandon the proposed move of particle k per walker; must
  /// run before the particle sets themselves accept (components may read
  /// pre-update table rows).
  virtual void mw_accept_reject(const RefVector<WaveFunctionComponent<TR>>& wfc_list,
                                const RefVector<ParticleSet<TR>>& p_list, int k,
                                const std::vector<char>& is_accepted, MWResource* resource)
  {
    (void)resource;
    for (std::size_t iw = 0; iw < wfc_list.size(); ++iw)
    {
      if (is_accepted[iw])
        wfc_list[iw].get().accept_move(p_list[iw].get(), k);
      else
        wfc_list[iw].get().reject_move(k);
    }
  }

  virtual void mw_evaluate_gl(const RefVector<WaveFunctionComponent<TR>>& wfc_list,
                              const RefVector<ParticleSet<TR>>& p_list,
                              const RefVector<std::vector<Grad>>& g_list,
                              const RefVector<std::vector<double>>& l_list, MWResource* resource)
  {
    (void)resource;
    for (std::size_t iw = 0; iw < wfc_list.size(); ++iw)
      wfc_list[iw].get().evaluate_gl(p_list[iw].get(), g_list[iw].get(), l_list[iw].get());
  }

  [[nodiscard]] double log_value() const { return log_value_; }

protected:
  FullPrecReal log_value_ = 0.0;
};

} // namespace qmcxx

#endif
