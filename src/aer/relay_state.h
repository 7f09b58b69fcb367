// RelayState: one node's relay state for AER's pull phase (Section 3.1.2,
// Algorithms 2-3), shared by both actors (AerNode, SoaAerState).
//
// A node plays three relay roles for other nodes' pulls, all keyed by the
// requester x and the string s:
//   - forwarder (Algorithm 2, first hop): the flooding guard, and pulls
//     retained while s was not (yet) its belief;
//   - relay (Algorithm 2, second hop): Fw1 tallies, one per poll-list
//     member w that the request is routed to;
//   - responder (Algorithm 3): Poll / Fw2 evidence for answering x.
//
// Each role is an arrival-ordered vector; one FlatMap64 per node indexes
// all of them by the packed (x, s) key, and the Fw1 entries of one (x, s)
// form a chain in arrival order. The hot path (every Fw1 / Fw2 / Poll /
// Pull delivery) is one open-addressed probe plus a short chain walk, and
// clear() keeps every buffer, so warm trials allocate nothing.
//
// Credits. Each tally credits a sender once, in a 64-bit mask over the
// sender's first position in the tally's fixed quorum (credit() below,
// sampler::QuorumView::locate); worlds with d > 64 are rejected at build.
//
// Fw1 fast path. An Fw1 tally exists only once some copy carrying its label
// `r` passed all three of Algorithm 2's checks, and two of them (this in
// H(s, w), w in J(x, r)) do not depend on the sender. So the actors look
// the tally up first (find_fw1): a later copy under the same label returns
// at once if the tally has fired, and otherwise checks only its sender.
//
// Serve order. After deciding, a node serves the retained entries of each
// role that have become due (serve()). Simulation behavior depends on send
// order, and the pinned order is the one the roles had when they were
// std::unordered_maps: libstdc++'s iteration order for the insertion
// sequence each role saw. That order is a pure function of the insertion
// sequence (integer keys hash to themselves and the bucket count grows by
// a fixed policy), and nothing is ever erased before serving, so replaying
// a role's arrival log into a fresh map reproduces it exactly. serve()
// replays every role; relay_state.cpp's replay is the one place that
// encodes the libstdc++ order.
#pragma once

#include <cstdint>
#include <vector>

#include "support/flat_map.h"
#include "support/mem.h"
#include "support/pool.h"
#include "support/types.h"

namespace fba::aer {

/// Credits a quorum member once: sets bit `pos` of `counted` (the member's
/// first position in the quorum's sorted copy, sampler::QuorumView::locate)
/// and returns whether it was clear. A tally's quorum never changes, so the
/// mask dedups exactly as a list of credited senders would.
inline bool credit(std::uint64_t& counted, std::uint32_t pos) {
  const std::uint64_t bit = std::uint64_t{1} << pos;
  if ((counted & bit) != 0) return false;
  counted |= bit;
  return true;
}

/// Serve-time scratch for every RelayState of one trial: the replay maps'
/// node pool (recycled, so warm trials allocate nothing) and the due list.
struct RelayScratch {
  support::Pool pool;
  std::vector<std::uint32_t> due;  ///< entries of one role, in serve order.
};

class RelayState {
 public:
  struct Fw1Tally {
    PollLabel r = 0;            ///< label of the copy that created it.
    std::uint64_t counted = 0;  ///< vouching y, by position in H(s, x).
    std::uint32_t slots = 0;    ///< slots of H(s, x) vouching.
    bool fired = false;         ///< Fw2 already sent ("forward only once").
  };
  struct Responder {
    std::uint64_t counted = 0;  ///< vouching z, by position in H(s, this).
    std::uint32_t slots = 0;    ///< slots of H(s, this) vouching.
    bool polled = false;        ///< Poll(s, r) received from x.
    bool answered = false;      ///< Answer sent ("forward once").
  };

  /// Drops every entry, keeping capacity.
  void clear();

  /// Flooding guard ("keep track of senders"): true the first time only.
  bool mark_forwarded(NodeId x, StringId s);
  /// Retains a pull for a string that is not (yet) our belief. One slot per
  /// (x, s): the first label wins.
  void retain_pull(NodeId x, StringId s, PollLabel r);
  /// The tally of Fw1(x, s, r, w) copies, created on first sight.
  Fw1Tally& fw1(NodeId x, StringId s, NodeId w);
  /// The (x, s, w) tally if one was created, else nullptr. Creates nothing.
  Fw1Tally* find_fw1(NodeId x, StringId s, NodeId w);
  /// The responder state for (x, s), created on first sight.
  Responder& responder(NodeId x, StringId s);
  const Responder* find_responder(NodeId x, StringId s) const;

  /// Post-decision service for `current`, role by role: forward each
  /// retained pull (`forward(x, s, r)`; the retained pulls are dropped
  /// after), fire each Fw1 tally holding a majority that has not fired
  /// (`fire(x, s, w, r)`), and answer each polled responder holding a
  /// majority (`answer(x, s)`). Marks fired / answered before the call.
  ///
  /// `d` is the pull-quorum size. Fw1 majorities are over H(s, x) and
  /// responder majorities over H(s, this); one `d` serves both because
  /// every H row has exactly d slots (sampler/tables.h).
  template <typename Forward, typename Fire, typename Answer>
  void serve(StringId current, std::uint32_t d, RelayScratch& scratch,
             Forward&& forward, Fire&& fire, Answer&& answer);

  /// Logical footprint (support/mem.h rules), headers excluded.
  void charge_mem(support::MemBudget& mem) const;

 private:
  static constexpr std::uint32_t kNone = ~0u;

  static std::uint64_t pack(NodeId x, StringId s) {
    return (static_cast<std::uint64_t>(x) << 32) | s;
  }
  static NodeId x_of(std::uint64_t xs) { return static_cast<NodeId>(xs >> 32); }
  static StringId s_of(std::uint64_t xs) {
    return static_cast<StringId>(xs & 0xffffffffu);
  }

  /// Fill scratch.due with the due entries of each role, in serve order.
  void order_pending(StringId current, RelayScratch& scratch) const;
  void order_fw1(StringId current, std::uint32_t d,
                 RelayScratch& scratch) const;
  void order_responders(StringId current, std::uint32_t d,
                        RelayScratch& scratch) const;

  /// Per-(x, s) index into the role vectors.
  struct Slot {
    std::uint32_t fw1 = kNone;        ///< head of the (x, s) Fw1 chain.
    std::uint32_t responder = kNone;  ///< index into responders_.
    bool forwarded = false;
    bool pending = false;             ///< a pull is retained in pending_.
  };
  struct Pending {
    std::uint64_t xs;
    PollLabel r;
  };
  struct Fw1Entry {
    std::uint64_t xs;
    NodeId w;
    std::uint32_t next;  ///< next entry of the same (x, s), or kNone.
    Fw1Tally tally;
  };
  struct ResponderEntry {
    std::uint64_t xs;
    Responder state;
  };

  support::FlatMap64<Slot> index_;
  std::vector<Pending> pending_;
  std::vector<Fw1Entry> fw1_;
  std::vector<ResponderEntry> responders_;
};

template <typename Forward, typename Fire, typename Answer>
void RelayState::serve(StringId current, std::uint32_t d,
                       RelayScratch& scratch, Forward&& forward, Fire&& fire,
                       Answer&& answer) {
  // A callback changes no entry's due state but the one it serves, so
  // precomputing each role's due list is the same as testing each entry
  // when the old maps' loops reached it.
  order_pending(current, scratch);
  for (const std::uint32_t i : scratch.due) {
    forward(x_of(pending_[i].xs), current, pending_[i].r);
  }
  for (const Pending& p : pending_) index_.find(p.xs)->pending = false;
  pending_.clear();

  order_fw1(current, d, scratch);
  for (const std::uint32_t i : scratch.due) {
    Fw1Entry& e = fw1_[i];
    e.tally.fired = true;
    fire(x_of(e.xs), current, e.w, e.tally.r);
  }

  order_responders(current, d, scratch);
  for (const std::uint32_t i : scratch.due) {
    responders_[i].state.answered = true;
    answer(x_of(responders_[i].xs), current);
  }
}

}  // namespace fba::aer
