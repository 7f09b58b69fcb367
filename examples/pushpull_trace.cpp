// Figure 2 walk-through: print one node's quorums and follow a verification
// pull hop by hop, using the sampler API directly — an example-sized
// companion of `fba_repro --figure=fig2` (which measures the per-kind
// traffic) aimed at explaining the protocol's message flow to a new reader.
//
//   $ ./pushpull_trace
#include <cstdio>

#include "fba.h"

int main() {
  using namespace fba;

  const std::size_t n = 32;
  sampler::SamplerParams params = sampler::SamplerParams::defaults(n, 2013);
  sampler::SamplerSuite suite(params);

  Rng rng(42);
  const BitString gstring = BitString::random(default_gstring_bits(n), rng);
  const auto skey = gstring.digest();
  const NodeId x = 5;

  std::printf("network of %zu nodes, quorum size d = %zu\n", n, params.d);
  std::printf("gstring = %s\n\n", gstring.to_string().c_str());

  // Push phase: who may push gstring to x, and where x's own pushes go.
  const auto push_quorum = suite.push.quorum(skey, x);
  std::printf("Push Quorum I(gstring, x=%u): nodes allowed to push it to x:\n  ",
              x);
  for (NodeId m : push_quorum.members) std::printf("%u ", m);
  std::printf("\n(x accepts gstring once more than %zu of these slots have"
              " pushed it)\n\n", push_quorum.size() / 2);

  std::printf("push targets of x (the nodes x' with x in I(gstring, x')):\n  ");
  for (NodeId target : suite.push.targets(skey, x)) std::printf("%u ", target);
  std::printf("\n(the permutation sampler gives both directions in O(d);"
              " every node\n fills exactly d quorum slots -> Lemma 1's"
              " no-overload clause)\n\n");

  // Pull phase: the Figure 2b cascade.
  const PollLabel r = suite.poll.random_label(rng);
  const auto poll_list = suite.poll.poll_list(x, r);
  const auto pull_quorum = suite.pull.quorum(skey, x);

  std::printf("pull request from x for gstring, label r=%llu:\n",
              static_cast<unsigned long long>(r));
  std::printf("  hop 1   Poll(s,r) -> J(x,r)    = ");
  for (NodeId w : poll_list.members) std::printf("%u ", w);
  std::printf("\n  hop 1   Pull(s,r) -> H(s,x)   = ");
  for (NodeId y : pull_quorum.members) std::printf("%u ", y);
  std::printf("\n");
  for (NodeId w : poll_list.members) {
    const auto h_w = suite.pull.quorum(skey, w);
    std::printf("  hop 2   Fw1 -> H(s,w=%-2u)      = ", w);
    for (NodeId z : h_w.members) std::printf("%u ", z);
    std::printf("\n  hop 3   Fw2: H(s,w=%u) -> w once a majority of H(s,x)"
                " vouched\n", w);
    break;  // one poll-list member suffices to show the shape
  }
  std::printf("  hop 4   Answer(s): w -> x (budget log^2 n = %zu per"
              " string)\n",
              static_cast<std::size_t>(node_id_bits(n)) *
                  static_cast<std::size_t>(node_id_bits(n)));
  std::printf("\nx decides once more than half of J(x,r) answered.\n");
  return 0;
}
