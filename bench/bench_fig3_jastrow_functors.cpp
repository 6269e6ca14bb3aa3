// Figure 3: "Jastrow functors of Ni and O ions and up and down electron
// spins for a 32-atom supercell of NiO."
//
// Prints the one-body (Ni, O) and two-body (parallel/antiparallel spin)
// B-spline functors of the NiO-32 trial wavefunction on a radial grid --
// the data behind the figure. The shapes (deep Ni well, shallower O
// well, positive decaying e-e correlation with cusp-split channels and
// smooth cutoff) match the published curves qualitatively; parameters
// are the DESIGN.md substitutions for the variationally optimized ones.
#include "bench/bench_common.h"
#include "numerics/spline_builder.h"
#include "workloads/system_builder.h"
#include "workloads/workloads.h"

using namespace qmcxx;

int main()
{
  bench::header("Figure 3: NiO-32 Jastrow functors", "Mathuriya et al. SC'17, Fig. 3");

  const SystemSpec info = workload_spec(Workload::NiO32);
  const double rw = info.lattice.wigner_seitz_radius();
  const double rc_j2 = 0.99 * rw;
  const int knots = 10;

  auto f_uu = build_bspline_functor<double>(ee_jastrow_shape(-0.25, rc_j2), -0.25, rc_j2, knots);
  auto f_ud = build_bspline_functor<double>(ee_jastrow_shape(-0.5, rc_j2), -0.5, rc_j2, knots);
  const double rc_j1 = std::min(rw * 0.99, 4.5);
  auto f_ni = build_bspline_functor<double>(
      ei_jastrow_shape(info.species[0].j1_depth, info.species[0].j1_width, rc_j1), 0.0, rc_j1,
      knots);
  auto f_o = build_bspline_functor<double>(
      ei_jastrow_shape(info.species[1].j1_depth, info.species[1].j1_width, rc_j1), 0.0, rc_j1,
      knots);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"r (bohr)", "U_Ni(r)", "U_O(r)", "u_uu(r)", "u_ud(r)"});
  const double rmax = rc_j2;
  for (int i = 0; i <= 24; ++i)
  {
    const double r = rmax * i / 24.0;
    rows.push_back({fmt(r, 3), fmt(f_ni.evaluate(r), 4), fmt(f_o.evaluate(r), 4),
                    fmt(f_uu.evaluate(r), 4), fmt(f_ud.evaluate(r), 4)});
  }
  print_table(rows);

  // Shape assertions mirrored from the figure.
  std::printf("\nshape checks vs the paper's figure:\n");
  std::printf("  Ni well deeper than O at r=0:        %s (%.3f vs %.3f)\n",
              f_ni.evaluate(0) < f_o.evaluate(0) ? "yes" : "NO", f_ni.evaluate(0),
              f_o.evaluate(0));
  std::printf("  antiparallel cusp twice parallel:    u'_ud(0)=%.3f, u'_uu(0)=%.3f\n", [&] {
    double du, d2;
    f_ud.evaluate(0.0, du, d2);
    return du;
  }(), [&] {
    double du, d2;
    f_uu.evaluate(0.0, du, d2);
    return du;
  }());
  std::printf("  all functors vanish at cutoff:       U_Ni(rc)=%.2e, u_ud(rc)=%.2e\n",
              f_ni.evaluate(rc_j1 * (1 - 1e-9)), f_ud.evaluate(rc_j2 * (1 - 1e-9)));
  return 0;
}
