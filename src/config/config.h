// qmcxx: configuration, precision policy and engine taxonomy.
//
// The paper (Mathuriya et al., SC'17) evaluates three configurations of
// QMCPACK:
//   Ref      -- AoS data layout, store-over-compute, all double precision
//   Ref+MP   -- Ref algorithms with key tables in single precision
//   Current  -- SoA layout, forward update, compute-on-the-fly, mixed
//               precision
// qmcxx mirrors this taxonomy: layout is selected by concrete classes
// (Aos* vs Soa*), precision by the TR template parameter, and the three
// named configurations are EngineVariant values wired up in
// drivers/qmc_system.h.
#ifndef QMCXX_CONFIG_CONFIG_H
#define QMCXX_CONFIG_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace qmcxx
{

/// Spatial dimension of the simulations. The paper's abstractions are
/// D-dimensional; all workloads are 3D.
inline constexpr unsigned OHMMS_DIM = 3;

/// Cache-line alignment (bytes) used by all hot containers.
inline constexpr std::size_t QMC_SIMD_ALIGNMENT = 64;

/// Index type used throughout (matches QMCPACK's choice of int).
using IndexType = int;

/// Full-precision real type for deliberate double-precision work inside
/// code templated on the compute precision TR: accumulators, matrix
/// inversions, Ewald phases, ratio/log-value bookkeeping (paper
/// Sec. 7.2). Bare `double` locals in TR-templated code are rejected by
/// tools/lint/qmcxx_lint.py (rule double-in-tr-template) so that every
/// full-precision escape from TR is a named, grep-able decision.
using FullPrecReal = double;

/// Accumulation type: per-walker and ensemble quantities are always kept
/// in double precision (paper Sec. 7.2).
using AccumType = FullPrecReal;

/// Position type of the *walker record* (serialization format). Note
/// this is a storage type, not an information-content guarantee: the
/// canonical position store inside ParticleSet lives in the table
/// precision TR, so under mixed precision (TR = float) the position
/// chain itself advances in float and walker records hold float-rounded
/// values. The periodic from-scratch recompute (Sec. 7.2) bounds the
/// resulting drift; per-walker and ensemble *accumulators* stay double.
using PosReal = double;

/// The three engine configurations evaluated in the paper.
enum class EngineVariant
{
  Ref,     ///< AoS, store-over-compute, double
  RefMP,   ///< AoS, store-over-compute, mixed precision
  Current, ///< SoA, compute-on-the-fly, mixed precision
  CurrentDP ///< Current algorithms in full double precision (ablation)
};

inline const char* to_string(EngineVariant v)
{
  switch (v)
  {
  case EngineVariant::Ref: return "Ref";
  case EngineVariant::RefMP: return "Ref+MP";
  case EngineVariant::Current: return "Current";
  case EngineVariant::CurrentDP: return "Current(DP)";
  }
  return "unknown";
}

/// Compute precision of the hot path (the TR template parameter),
/// selectable at run time. `Single` is the paper's production mixed
/// precision (TR = float tables/kernels, FullPrecReal accumulators and
/// inversions, Sec. 7.2); `Double` is the full-precision reference.
enum class Precision
{
  Double, ///< TR = double everywhere
  Single  ///< TR = float hot path, double accumulators (mixed precision)
};

inline const char* to_string(Precision p)
{
  return p == Precision::Double ? "double" : "single";
}

/// sizeof(TR) for a precision value; matches the qmcxx-snap-v1
/// precision_bytes tag.
inline int precision_bytes(Precision p)
{
  return p == Precision::Double ? 8 : 4;
}

/// Data-layout half of the engine taxonomy: the paper's Ref engines are
/// AoS store-over-compute, the Current engines SoA compute-on-the-fly.
enum class EngineLayout
{
  Aos, ///< AoS containers, store-over-compute (Ref algorithms)
  Soa  ///< SoA containers, compute-on-the-fly
};

inline const char* to_string(EngineLayout l)
{
  return l == EngineLayout::Aos ? "aos" : "soa";
}

/// The four EngineVariant spellings are aliases over the orthogonal
/// {layout} x {precision} grid; these helpers map between the two
/// views. The drivers dispatch on (layout, precision) -- the variant
/// names survive only as user-facing aliases and fingerprint labels.
inline EngineLayout layout_of(EngineVariant v)
{
  return (v == EngineVariant::Ref || v == EngineVariant::RefMP) ? EngineLayout::Aos
                                                                : EngineLayout::Soa;
}

inline Precision precision_of(EngineVariant v)
{
  return (v == EngineVariant::Ref || v == EngineVariant::CurrentDP) ? Precision::Double
                                                                    : Precision::Single;
}

/// Canonical variant alias for a (layout, precision) cell -- the name
/// stamped into checkpoint fingerprints so an aliased run and its
/// precision-overridden equivalent agree on identity.
inline EngineVariant variant_for(EngineLayout l, Precision p)
{
  if (l == EngineLayout::Aos)
    return p == Precision::Double ? EngineVariant::Ref : EngineVariant::RefMP;
  return p == Precision::Double ? EngineVariant::CurrentDP : EngineVariant::Current;
}

/// Runtime precision policy (paper Sec. 7.2): which TR the engine
/// computes in, plus the drift-guard knobs that make the float path
/// production-safe. Threaded DriverConfig -> EngineRunSpec ->
/// run_engine; the monitor itself lives in DiracDeterminant.
///
/// The guard samples `drift_sample_rows` rotating rows of the inverse
/// each generation (row indices derived from the generation counter
/// only, so chains stay bitwise-identical across crowd_size x
/// num_threads decompositions) and computes the FullPrecReal residual
/// ||psi_row . A^-1 - e_k||_inf. A residual above `drift_tolerance`
/// triggers a from-scratch refresh; `refresh_interval > 0` additionally
/// forces one every that many generations regardless of residual.
struct PrecisionPolicy
{
  /// Compute precision. When unset, the variant alias's precision half
  /// decides.
  std::optional<Precision> precision;
  /// Refresh when the sampled inverse residual exceeds this (0 disables
  /// residual-triggered refreshes; double-path residuals ~1e-12 never
  /// reach the default, keeping double chains bitwise-identical).
  double drift_tolerance = 1e-3;
  /// Force a from-scratch refresh every N generations (0 = never).
  int refresh_interval = 0;
  /// Rows of each determinant inverse sampled per generation (0
  /// disables the monitor entirely).
  int drift_sample_rows = 2;
};

/// Unified run-shape validation. Degenerate crowd/delay/thread
/// configurations (crowd_size <= 0, delay_rank < 1, num_threads < 0,
/// ...) used to be rejected by per-site `throw std::invalid_argument`
/// blocks scattered across the drivers and update engines; every
/// construction-time check now funnels through these helpers so the
/// bound, the hint and the message shape live in one place.
namespace validate
{

/// Require an integral knob to be at least `min_allowed`.
/// `context` names the constructing object ("DriverConfig", ...),
/// `knob` the field, `hint` an optional clarification appended in
/// parentheses (e.g. "0 = hardware").
inline void at_least(const char* context, const char* knob, long long value,
                     long long min_allowed, const char* hint = nullptr)
{
  if (value < min_allowed)
    throw std::invalid_argument(std::string(context) + ": " + knob + " must be >= " +
                                std::to_string(min_allowed) +
                                (hint ? std::string(" (") + hint + ")" : std::string()) +
                                ", got " + std::to_string(value));
}

/// Require a real-valued knob to be strictly positive. Written as
/// !(value > 0) so NaN is rejected too.
inline void positive(const char* context, const char* knob, double value)
{
  if (!(value > 0.0))
    throw std::invalid_argument(std::string(context) + ": " + knob + " must be > 0, got " +
                                std::to_string(value));
}

} // namespace validate

/// Round n up to a multiple of the SIMD alignment in elements of T.
/// SoA containers pad each component row to this size so that every row
/// starts cache-aligned (paper Sec. 7.4, "full N x Np storage").
template<typename T>
constexpr std::size_t getAlignedSize(std::size_t n)
{
  constexpr std::size_t per_line = QMC_SIMD_ALIGNMENT / sizeof(T);
  static_assert(per_line > 0);
  return ((n + per_line - 1) / per_line) * per_line;
}

} // namespace qmcxx

#endif
