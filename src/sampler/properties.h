// Empirical verification of the sampler properties the analysis rests on.
//
// The paper proves these by the probabilistic method (Lemma 1 via [KLST11],
// Lemma 2 via the random-digraph counting argument of Section 4.1 /
// Figure 3). Our samplers are keyed pseudorandom constructions, so the
// checkers here play the role of the existence proofs: they measure, over a
// concrete instance, how close the instance is to the guaranteed bounds.
// They power tests and `fba_repro --figure=fig3`.
#pragma once

#include <cstdint>
#include <vector>

#include "sampler/sampler.h"
#include "support/random.h"

namespace fba::sampler {

/// Lemma 1 ("no x is overloaded"): distribution of |I^{-1}(s, y)| — how many
/// quorum slots node y occupies for string s. With the permutation
/// construction this is exactly d for every (s, y); the checker verifies it.
struct OverloadReport {
  std::size_t min_load = 0;
  std::size_t max_load = 0;
  double mean_load = 0;
};
OverloadReport check_overload(const QuorumSampler& sampler, StringKey s);

/// Fraction of nodes x whose quorum Q(s, x) has at most half of its slots in
/// `good` — the quorums the adversary "wins" for string s. The sampler
/// property says this fraction stays near the binomial tail, independent of
/// which nodes are good.
double bad_quorum_fraction(const QuorumSampler& sampler, StringKey s,
                           const std::vector<bool>& good);

/// Lemma 2 Property 1: fraction of (x, r) labels whose poll list J(x, r)
/// contains a minority of good nodes, estimated over `samples` random
/// labels.
double bad_label_fraction(const PollSampler& sampler,
                          const std::vector<bool>& good, std::size_t samples,
                          Rng& rng);

/// Lemma 2 Property 2 (border expansion, Figure 3): for a set L of labeled
/// vertices (at most one label per node, |L| <= n / log n),
///     border(L) = sum over (x,r) in L of |J(x,r) \ L*|
/// must exceed (2/3) * d * |L|. BorderProbe builds L either uniformly at
/// random or adversarially (greedy: each step adds the (x, r) minimizing its
/// own border contribution, scanning `labels_per_node` labels per candidate
/// node — the strongest polynomial-time "cornering" attempt we give the
/// adversary).
struct BorderReport {
  std::size_t set_size = 0;        ///< |L|
  std::uint64_t border = 0;        ///< |∂L|
  double ratio = 0;                ///< |∂L| / (d * |L|), bound: > 2/3.
};

BorderReport random_border(const PollSampler& sampler, std::size_t set_size,
                           Rng& rng);

BorderReport greedy_adversarial_border(const PollSampler& sampler,
                                       std::size_t set_size,
                                       std::size_t labels_per_node, Rng& rng);

}  // namespace fba::sampler
