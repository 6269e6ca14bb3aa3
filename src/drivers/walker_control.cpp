#include <algorithm>
#include <cassert>
#include <cmath>

#include "concurrency/rng_streams.h"
#include "drivers/qmc_drivers.h"

namespace qmcxx
{

namespace
{

/// Deep-copy a walker as a branching child: fresh decorrelated RNG
/// stream (never the parent's -- clones sharing a stream would walk in
/// lockstep forever), fresh identity, recorded lineage. The clone seed
/// is the stream-0 SplitMix64 derivation of a branch-stream draw: raw
/// xoshiro outputs fed straight back in as seeds would re-enter the
/// seeding path unmixed.
std::unique_ptr<Walker> clone_walker(const Walker& parent, RandomGenerator& branch_rng,
                                     std::vector<RandomGenerator>& rngs_out)
{
  auto child = std::make_unique<Walker>(parent);
  const std::uint64_t seed = stream_seed(branch_rng.next(), 0);
  child->id = seed ? seed : 1; // id 0 is the founder sentinel in parent_id
  child->parent_id = parent.id;
  rngs_out.emplace_back(seed);
  return child;
}

} // namespace

void branch_walkers(WalkerPopulation& pop, int target_population, RandomGenerator& rng)
{
  // Stochastic rounding of weights into integer multiplicities
  // (comb-free birth/death branching), followed by a hard clamp that
  // keeps the population within [target/2, 2*target]. Surviving walkers
  // keep their own RNG streams (the stream pairing is part of the
  // Markov chain state); clones get fresh decorrelated streams.
  if (pop.walkers.empty())
    return; // nothing to branch (and nothing to resurrect from)
  std::vector<std::unique_ptr<Walker>> next;
  std::vector<RandomGenerator> next_rngs;
  next.reserve(pop.walkers.size());

  for (int iw = 0; iw < pop.size(); ++iw)
  {
    Walker& w = *pop.walkers[iw];
    // A non-finite weight (from a non-finite local energy) gets no
    // copies: converting it to int is undefined. Finite weights are
    // capped at 2.5 per generation, so they always convert.
    const FullPrecReal m = w.weight + rng.uniform();
    const int mult = std::isfinite(m) ? static_cast<int>(m) : 0;
    w.multiplicity = mult;
    if (mult <= 0)
      continue;
    w.weight = 1.0;
    // The survivor moves together with its paired stream; children are
    // cloned afterwards from the moved-to slot (the object is intact,
    // only the owning pointer moved).
    next.push_back(std::move(pop.walkers[iw]));
    next_rngs.push_back(pop.rngs[iw]);
    const Walker& parent = *next.back();
    for (int c = 1; c < mult; ++c)
      next.push_back(clone_walker(parent, rng, next_rngs));
  }

  // Guard rails: never let the population die out or explode.
  const int min_pop = std::max(1, target_population / 2);
  const int max_pop = 2 * target_population;
  if (next.empty())
  {
    // Total extinction (every multiplicity rounded to zero): resurrect
    // from the old population, which still owns all the dead walkers.
    assert(!pop.walkers.empty());
    while (static_cast<int>(next.size()) < min_pop)
    {
      const std::size_t src = rng.range(pop.walkers.size());
      Walker& w = *pop.walkers[src];
      w.weight = 1.0;
      next.push_back(clone_walker(w, rng, next_rngs));
    }
  }
  while (static_cast<int>(next.size()) < min_pop)
  {
    const std::size_t src = rng.range(next.size());
    next.push_back(clone_walker(*next[src], rng, next_rngs));
  }
  if (static_cast<int>(next.size()) > max_pop)
  {
    next.resize(max_pop);
    next_rngs.resize(max_pop);
  }

  assert(static_cast<int>(next.size()) >= min_pop &&
         static_cast<int>(next.size()) <= max_pop &&
         "branched population left [target/2, 2*target]");
  assert(next.size() == next_rngs.size() && "walker/RNG stream pairing broken by branching");

  pop.walkers = std::move(next);
  pop.rngs = std::move(next_rngs);
}

} // namespace qmcxx
