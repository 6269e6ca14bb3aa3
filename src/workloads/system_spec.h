// SystemSpec: the complete, self-contained description of one QMC
// system -- lattice, species (charges, Jastrow and pseudopotential
// parameters), ion positions, synthetic-orbital parameters, Jastrow
// knot count and default delay rank.
//
// It is the one description of a system: build_system(SystemSpec)
// (system_builder.h) is the one way to build it, and every committed
// system -- the four paper workloads among them (workloads.h) -- is a
// specs/*.json file. The JSON wire format (qmcxx-spec-v1) lives in
// io/job_spec.h; doubles are serialized with 17 significant digits so
// parse(serialize(spec)) == spec bitwise.
#ifndef QMCXX_WORKLOADS_SYSTEM_SPEC_H
#define QMCXX_WORKLOADS_SYSTEM_SPEC_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "particle/lattice.h"

namespace qmcxx
{

struct IonSpecies
{
  std::string name;
  double charge;     ///< valence charge Z* (paper Table 1)
  double j1_depth;   ///< one-body Jastrow well depth (hartree)
  double j1_width;   ///< one-body Jastrow width (bohr)
  double r_core;     ///< local-pseudopotential core radius (bohr)
  double nl_amplitude; ///< non-local channel strength (0 = none)
  double nl_width;
  double nl_rcut;
};

struct SystemSpec
{
  std::string name;
  int num_electrons = 0;
  // ---- synthetic B-spline orbital set ("orbitals" object) ----
  std::array<int, 3> grid{0, 0, 0}; ///< B-spline grid
  int num_orbitals = 0;             ///< orbitals per spin determinant
  // ---- Jastrow / determinant parameters ----
  int jastrow_knots = 10; ///< knots per CubicBsplineFunctor
  int delay_rank = 1;     ///< default Woodbury delay rank (driver may raise)
  bool has_pseudopotential = false;
  // ---- geometry ----
  std::vector<IonSpecies> species;
  std::vector<int> ion_counts; ///< per species, parallel to `species`
  Lattice lattice;
  /// Ion positions (bohr), grouped by species to match ion_counts.
  std::vector<TinyVector<double, 3>> ion_positions;
};

/// FNV-1a hash over every field that shapes the built system (name,
/// counts, grid, lattice bytes, species parameters, ion positions).
/// Folded into io::workload_fingerprint so a snapshot taken from one
/// spec is rejected against a different spec sharing the same name.
[[nodiscard]] std::uint64_t spec_content_hash(const SystemSpec& spec);

/// Field-exact (bitwise on doubles) comparisons for the round-trip
/// contract parse(serialize(spec)) == spec.
bool operator==(const IonSpecies& a, const IonSpecies& b);
bool operator==(const SystemSpec& a, const SystemSpec& b);
inline bool operator!=(const SystemSpec& a, const SystemSpec& b) { return !(a == b); }

} // namespace qmcxx

#endif
