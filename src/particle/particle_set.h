// ParticleSet: positions plus their derived relation tables.
//
// The canonical position store is the SoA container (paper Sec. 7.3,
// Fig. 5): every hot kernel reads cache-aligned, unit-stride component
// rows directly. AoS access survives only as a thin compat view --
// pos(i)/set_pos(i) element accessors and a scatter-on-demand positions()
// vector for consumers that genuinely need AoS (Ewald phase tables,
// tests). There is no AoS mirror to refresh: update(), clone and the
// walker load/store paths carry exactly one representation, and an
// accepted move writes the "6 floats" of Sec. 7.3 and nothing else.
// Distance tables hang off the set and are driven through the
// prepare_move / make_move / accept_move / reject_move protocol of the
// PbyP update; make_virtual_moves fills the NLPP quadrature fan's rows
// once for every ratio-only consumer. Every position write bumps
// version(), which keys the per-configuration caches (the AoS view and
// the electron structure factor the Coulomb terms share). The template
// parameter TR is the compute (table) precision: double for Ref, float
// under mixed precision.
#ifndef QMCXX_PARTICLE_PARTICLE_SET_H
#define QMCXX_PARTICLE_PARTICLE_SET_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/config.h"
#include "containers/mw_types.h"
#include "containers/tiny_vector.h"
#include "containers/vector_soa.h"
#include "particle/distance_table.h"
#include "particle/lattice.h"
#include "particle/walker.h"

namespace qmcxx
{

struct SpeciesInfo
{
  std::string name;
  double charge = 0.0; ///< valence charge Z* (paper Table 1)
};

template<typename TR>
class ParticleSet
{
public:
  using Pos = TinyVector<double, 3>;

  ParticleSet(std::string name, const Lattice& lattice) : name_(std::move(name)), lattice_(lattice)
  {}

  // ---- composition ---------------------------------------------------
  int add_species(const std::string& sname, double charge)
  {
    species_.push_back({sname, charge});
    return static_cast<int>(species_.size()) - 1;
  }

  /// Allocate counts[s] particles per species, grouped contiguously.
  void create(const std::vector<int>& counts)
  {
    assert(counts.size() == species_.size());
    int total = 0;
    group_first_.clear();
    group_last_.clear();
    for (int c : counts)
    {
      group_first_.push_back(total);
      total += c;
      group_last_.push_back(total);
    }
    rsoa_.resize(total);
    ++version_;
    group_id_.resize(total);
    for (std::size_t g = 0; g < counts.size(); ++g)
      for (int i = group_first_[g]; i < group_last_[g]; ++i)
        group_id_[i] = static_cast<int>(g);
  }

  const std::string& name() const { return name_; }
  const Lattice& lattice() const { return lattice_; }
  int size() const { return static_cast<int>(rsoa_.size()); }
  int num_species() const { return static_cast<int>(species_.size()); }
  int group_id(int i) const { return group_id_[i]; }
  int first(int group) const { return group_first_[group]; }
  int last(int group) const { return group_last_[group]; }
  const SpeciesInfo& species(int g) const { return species_[g]; }

  // ---- state: canonical SoA storage ------------------------------------
  /// The canonical position store (paper Fig. 5). Kernels read component
  /// rows via Rsoa().data(d); all writes go through set_pos/set_positions
  /// or the move protocol so the compat view stays coherent.
  const VectorSoaContainer<TR, 3>& Rsoa() const { return rsoa_; }

  /// AoS compat view of one position (gathered from the SoA rows).
  Pos pos(int i) const
  {
    return Pos{static_cast<double>(rsoa_(0, i)), static_cast<double>(rsoa_(1, i)),
               static_cast<double>(rsoa_(2, i))};
  }

  /// Scatter one position into the canonical rows.
  void set_pos(int i, const Pos& r)
  {
    rsoa_.assign(i, r);
    ++version_;
  }

  /// Bulk AoS ingestion: the single surviving AoS-to-SoA conversion
  /// (walker load, system setup). This is what remains of the former
  /// scattered `Rsoa = R` mirror refreshes after their centralisation
  /// and removal.
  void set_positions(const std::vector<Pos>& r)
  {
    assert(r.size() == rsoa_.size());
    rsoa_ = r;
    ++version_;
  }

  /// Bumped by every position write (set_pos, set_positions and so
  /// load_walker, accept_move): caches of position-derived data are
  /// current while their recorded version equals this.
  std::uint64_t version() const { return version_; }

  /// Scatter-on-demand AoS view of all positions (double precision),
  /// cached until the next position write. For consumers that need the
  /// whole AoS vector (Ewald phase tables, serialization); hot kernels
  /// use Rsoa() rows instead.
  const std::vector<Pos>& positions() const
  {
    if (aos_version_ != version_)
    {
      aos_view_.resize(rsoa_.size());
      for (std::size_t i = 0; i < rsoa_.size(); ++i)
        aos_view_[i] = pos(static_cast<int>(i));
      aos_version_ = version_;
    }
    return aos_view_;
  }

  /// Cache slot for the electron structure factor rho(k) of the current
  /// configuration (QMCPACK keeps one per ParticleSet too): filled and
  /// shared by the Coulomb terms through electron_rho
  /// (hamiltonian/coulomb.h). It is current while `version` equals
  /// version() and `kset` names the k-vectors it was summed over. A
  /// clone starts empty, so crowd slots never share one.
  struct StructureFactor
  {
    std::uint64_t version = 0; ///< version() it was computed at; 0 = never
    std::uint64_t kset = 0;    ///< EwaldSum::kset_key() of its k-vectors
    std::vector<FullPrecReal> re, im;
  };
  StructureFactor& structure_factor() { return sk_; }

  /// Refresh all distance tables from the canonical positions after a
  /// write outside the move protocol (walker load, measurement state).
  /// No layout mirroring happens here.
  void update()
  {
    for (auto& dt : tables_)
      dt->evaluate(*this);
  }

  // ---- distance tables -------------------------------------------------
  int add_table(std::unique_ptr<DistanceTable<TR>> table)
  {
    tables_.push_back(std::move(table));
    return static_cast<int>(tables_.size()) - 1;
  }
  DistanceTable<TR>& table(int i) { return *tables_[i]; }
  const DistanceTable<TR>& table(int i) const { return *tables_[i]; }
  int num_tables() const { return static_cast<int>(tables_.size()); }

  /// Deep copy for per-thread compute objects (paper Fig. 4,
  /// "Particles E_th(E)"): same species layout, positions and table
  /// kinds; table state is refreshed on the next update().
  std::unique_ptr<ParticleSet<TR>> clone() const
  {
    auto c = std::make_unique<ParticleSet<TR>>(name_, lattice_);
    c->species_ = species_;
    c->group_id_ = group_id_;
    c->group_first_ = group_first_;
    c->group_last_ = group_last_;
    c->rsoa_ = rsoa_;
    for (const auto& dt : tables_)
      c->tables_.push_back(dt->clone());
    return c;
  }

  template<typename DT>
  DT& table_as(int i)
  {
    DT* t = dynamic_cast<DT*>(tables_[i].get());
    assert(t != nullptr && "distance table layout does not match engine variant");
    return *t;
  }

  // ---- PbyP move protocol ----------------------------------------------
  /// Compute-on-the-fly hook, called once before proposing a move of k.
  void prepare_move(int k)
  {
    for (auto& dt : tables_)
      dt->prepare_move(*this, k);
  }

  /// Virtual moves of particle k to vpos[0..nr) (the NLPP quadrature
  /// fan): every table fills one virtual distance row per position,
  /// once for all the ratio-only consumers. Nothing is proposed or
  /// committed, and the temp rows keep the last make_move.
  void make_virtual_moves(int k, const Pos* vpos, int nr)
  {
    for (auto& dt : tables_)
      dt->make_virtual_moves(*this, k, vpos, nr);
  }

  /// Propose moving particle k to newpos: fills all temporary rows.
  void make_move(int k, const Pos& newpos)
  {
    active_ = k;
    active_pos_ = newpos;
    for (auto& dt : tables_)
      dt->move(*this, newpos, k);
  }

  void accept_move(int k)
  {
    assert(k == active_);
    rsoa_.assign(k, active_pos_); // the "6 floats" update of Sec. 7.3
    ++version_;
    for (auto& dt : tables_)
      dt->update(k);
    active_ = -1;
  }

  void reject_move(int k)
  {
    assert(k == active_);
    (void)k;
    active_ = -1;
  }

  int active() const { return active_; }
  const Pos& active_pos() const { return active_pos_; }

  // ---- walker interaction ------------------------------------------------
  /// Scatter a walker's configuration into the canonical store (paper
  /// Fig. 4 loadWalker): one pass, no mirror. Callers decide whether
  /// tables need evaluate() or are restored from buffer.
  void load_walker(const Walker& w)
  {
    assert(static_cast<int>(w.R.size()) == size());
    set_positions(w.R);
  }

  /// Gather the canonical store back into the walker's AoS record.
  void store_walker(Walker& w) const { rsoa_.copyTo(w.R); }

  // ---- multi-walker (crowd) batched staging ---------------------------
  // Flat loops over the per-walker sets; one call per crowd keeps the
  // move protocol's fan-out in one place so a batched distance-table
  // engine can later hook in without touching the drivers.
  static void mw_update(const RefVector<ParticleSet<TR>>& p_list)
  {
    for (auto& p : p_list)
      p.get().update();
  }

  static void mw_prepare_move(const RefVector<ParticleSet<TR>>& p_list, int k)
  {
    for (auto& p : p_list)
      p.get().prepare_move(k);
  }

  static void mw_make_move(const RefVector<ParticleSet<TR>>& p_list, int k,
                           const std::vector<Pos>& newpos)
  {
    assert(newpos.size() >= p_list.size());
    for (std::size_t iw = 0; iw < p_list.size(); ++iw)
      p_list[iw].get().make_move(k, newpos[iw]);
  }

  /// Commit/abandon the proposed move of particle k per walker. The
  /// wavefunction components must have been updated first (see
  /// TrialWaveFunction::mw_accept_reject, which calls this last).
  static void mw_accept_reject(const RefVector<ParticleSet<TR>>& p_list, int k,
                               const std::vector<char>& is_accepted)
  {
    assert(is_accepted.size() >= p_list.size());
    for (std::size_t iw = 0; iw < p_list.size(); ++iw)
    {
      if (is_accepted[iw])
        p_list[iw].get().accept_move(k);
      else
        p_list[iw].get().reject_move(k);
    }
  }

private:
  std::string name_;
  Lattice lattice_;
  std::vector<SpeciesInfo> species_;
  std::vector<int> group_id_;
  std::vector<int> group_first_;
  std::vector<int> group_last_;
  VectorSoaContainer<TR, 3> rsoa_; ///< canonical SoA storage (Fig. 5)
  std::uint64_t version_ = 1;
  mutable std::vector<Pos> aos_view_; ///< scatter-on-demand compat view
  mutable std::uint64_t aos_version_ = 0;
  StructureFactor sk_;
  std::vector<std::unique_ptr<DistanceTable<TR>>> tables_;
  int active_ = -1;
  Pos active_pos_{};
};

} // namespace qmcxx

#endif
