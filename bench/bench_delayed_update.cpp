// Sec. 8.4 outlook: delayed (Woodbury) determinant updates.
//
// The paper identifies DetUpdate -- rank-1 Sherman-Morrison, BLAS2 -- as
// the future bottleneck (O(N^3) term) and proposes the delayed-update
// scheme: bind k accepted moves, then apply them together with BLAS3
// gemms. qmcxx implements the engine (delayed_update.h) and this bench
// sweeps the delay factor for determinant sizes covering NiO-32/64,
// timing a full sweep of accepted row replacements (ratio + bind +
// flush): per delay factor the sweep time, updates/s and the speedup
// over the rank-1 window.
#include "bench/bench_common.h"
#include "instrument/stopwatch.h"
#include "numerics/linalg.h"
#include "numerics/rng.h"
#include "wavefunction/delayed_update.h"

using namespace qmcxx;

namespace
{

/// Time a full sweep of n accepted row replacements at the given delay
/// (delay 1 = Sherman-Morrison-equivalent path through the engine).
double time_sweep(int n, int delay, int reps)
{
  RandomGenerator rng(7);
  Matrix<double> a(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a(i, j) = rng.uniform(-1, 1) + (i == j ? 3.0 : 0.0); // well conditioned
  Matrix<double> ainv_t;
  {
    Matrix<double> inv;
    double logdet, sign;
    linalg::invert_matrix(a, inv, logdet, sign);
    ainv_t.resize(n, n, true);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ainv_t(i, j) = inv(j, i);
  }

  aligned_vector<double> v(getAlignedSize<double>(n));
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep)
  {
    Matrix<double> m = ainv_t; // fresh copy per repetition
    DelayedUpdateEngine<double> engine(n, delay);
    engine.attach(&m);
    const Stopwatch sweep_watch;
    for (int k = 0; k < n; ++k)
    {
      for (int j = 0; j < n; ++j)
        v[j] = a(k, j) + 0.05 * rng.uniform(-1, 1); // slightly moved row
      (void)engine.ratio(v.data(), k);
      engine.accept(v.data(), k);
    }
    engine.flush();
    best = std::min(best, sweep_watch.seconds());
  }
  return best;
}

} // namespace

int main()
{
  bench::header("Sec. 8.4: delayed-update DetUpdate sweep (Woodbury, BLAS3)",
                "Mathuriya et al. SC'17, Sec. 8.4 (future work, implemented here)");

  const int reps = 3;
  for (int n : {192, 384})
  {
    std::printf("\ndeterminant size N = %d (NiO-%s per-spin block):\n", n,
                n == 192 ? "32" : "64");
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"delay", "sweep time", "vs rank-1", "updates/s"});
    double base = 0;
    for (int delay : {1, 2, 4, 8, 16, 32})
    {
      const double secs = time_sweep(n, delay, reps);
      if (delay == 1)
        base = secs;
      rows.push_back({std::to_string(delay), fmt(secs * 1e3, 2) + " ms",
                      fmt(base / secs, 2) + "x", fmt(n / secs, 0)});
    }
    print_table(rows);
  }

  std::printf("\npaper shape check: moderate delay factors beat rank-1 updates\n"
              "by batching the inverse update into cache-friendly BLAS3-style\n"
              "passes; gains grow with N (the paper's motivation for large\n"
              "future problems).\n");
  return 0;
}
