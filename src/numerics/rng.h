// Random number generation for the Monte Carlo drivers.
//
// A self-contained xoshiro256** generator plus Box-Muller Gaussians.
// Determinism matters here beyond reproducibility of tests: the paper's
// Ref/Ref+MP/Current comparisons run the *same* Markov chain through
// different kernel implementations, so qmcxx guarantees identical random
// streams given identical seeds regardless of engine variant.
#ifndef QMCXX_NUMERICS_RNG_H
#define QMCXX_NUMERICS_RNG_H

#include <cmath>
#include <cstdint>
#include <type_traits>

namespace qmcxx
{

/// xoshiro256** by Blackman & Vigna (public domain algorithm),
/// reimplemented here; period 2^256 - 1, passes BigCrush.
class RandomGenerator
{
public:
  explicit RandomGenerator(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { this->seed(seed); }

  void seed(std::uint64_t s)
  {
    // SplitMix64 expansion of the scalar seed into the 4-word state.
    for (auto& w : state_)
    {
      s += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = s;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      w = z ^ (z >> 31);
    }
    have_gauss_ = false;
  }

  [[nodiscard]] std::uint64_t next()
  {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal via Box-Muller (pairs cached).
  [[nodiscard]] double gaussian()
  {
    if (have_gauss_)
    {
      have_gauss_ = false;
      return cached_gauss_;
    }
    double u1, u2;
    do
    {
      u1 = uniform();
    } while (u1 <= 1e-300);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_gauss_ = r * std::sin(theta);
    have_gauss_ = true;
    return r * std::cos(theta);
  }

  /// Integer in [0, n), unbiased (Lemire's multiply-shift rejection).
  /// The old `next() % n` mapped the 2^64 outputs onto n buckets with
  /// the first `2^64 mod n` buckets one output too heavy; here draws
  /// landing in the short low-product window are rejected instead, so
  /// every bucket receives exactly floor(2^64/n) or-rejected outputs.
  [[nodiscard]] std::uint64_t range(std::uint64_t n)
  {
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n)
    {
      const std::uint64_t threshold = (0 - n) % n; // 2^64 mod n
      while (lo < threshold)
      {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Complete serializable generator state (qmcxx-snap-v1 checkpoints,
  /// src/io/snapshot.h): the four xoshiro words plus the Box-Muller
  /// cache. A parked Gaussian is part of the stream position --
  /// dropping it on restore would shift every draw after resume and
  /// break bitwise chain parity.
  struct State
  {
    std::uint64_t s[4];
    std::uint64_t have_gauss; ///< 0/1 (64-bit keeps the struct pad-free)
    double cached_gauss;
  };

  [[nodiscard]] State save_state() const
  {
    return State{{state_[0], state_[1], state_[2], state_[3]},
                 have_gauss_ ? std::uint64_t{1} : std::uint64_t{0}, cached_gauss_};
  }

  void restore_state(const State& st)
  {
    for (int i = 0; i < 4; ++i)
      state_[i] = st.s[i];
    have_gauss_ = st.have_gauss != 0;
    cached_gauss_ = st.cached_gauss;
  }

private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4]{};
  bool have_gauss_ = false;
  double cached_gauss_ = 0.0;
};

// The snapshot format (qmcxx-snap-v1) ships RNG state as raw bytes; if
// this layout changes, SNAPSHOT_VERSION in src/io/snapshot.h must too.
static_assert(std::is_trivially_copyable_v<RandomGenerator::State> &&
                  sizeof(RandomGenerator::State) == 48,
              "RandomGenerator::State is serialized verbatim into snapshots");

} // namespace qmcxx

#endif
