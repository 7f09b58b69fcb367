#include "aer/relay_state.h"

#include <functional>
#include <unordered_map>

namespace fba::aer {

namespace {

/// The map type each role used to live in, minus its payload: key -> index
/// of the entry in the role's arrival log. The value type does not affect
/// iteration order; the key type and the hash do.
template <typename K>
using ReplayMap =
    std::unordered_map<K, std::uint32_t, std::hash<K>, std::equal_to<K>,
                       support::PoolAllocator<std::pair<const K, std::uint32_t>>>;

/// A fresh map, in the state a default-constructed one starts in.
template <typename K>
ReplayMap<K> replay_map(RelayScratch& scratch) {
  return ReplayMap<K>(typename ReplayMap<K>::allocator_type(&scratch.pool));
}

}  // namespace

void RelayState::clear() {
  index_.clear();
  pending_.clear();
  fw1_.clear();
  responders_.clear();
}

bool RelayState::mark_forwarded(NodeId x, StringId s) {
  Slot& slot = index_.get_or_create(pack(x, s));
  if (slot.forwarded) return false;
  slot.forwarded = true;
  return true;
}

void RelayState::retain_pull(NodeId x, StringId s, PollLabel r) {
  const std::uint64_t xs = pack(x, s);
  Slot& slot = index_.get_or_create(xs);
  if (slot.pending) return;
  slot.pending = true;
  pending_.push_back({xs, r});
}

RelayState::Fw1Tally& RelayState::fw1(NodeId x, StringId s, NodeId w) {
  const std::uint64_t xs = pack(x, s);
  std::uint32_t* link = &index_.get_or_create(xs).fw1;
  while (*link != kNone) {
    Fw1Entry& e = fw1_[*link];
    if (e.w == w) return e.tally;
    link = &e.next;
  }
  // Link before appending: the append may move the entry `link` points into.
  *link = static_cast<std::uint32_t>(fw1_.size());
  fw1_.push_back({xs, w, kNone, {}});
  return fw1_.back().tally;
}

RelayState::Fw1Tally* RelayState::find_fw1(NodeId x, StringId s, NodeId w) {
  const Slot* slot = index_.find(pack(x, s));
  if (slot == nullptr) return nullptr;
  for (std::uint32_t i = slot->fw1; i != kNone; i = fw1_[i].next) {
    if (fw1_[i].w == w) return &fw1_[i].tally;
  }
  return nullptr;
}

RelayState::Responder& RelayState::responder(NodeId x, StringId s) {
  const std::uint64_t xs = pack(x, s);
  Slot& slot = index_.get_or_create(xs);
  if (slot.responder == kNone) {
    slot.responder = static_cast<std::uint32_t>(responders_.size());
    responders_.push_back({xs, {}});
  }
  return responders_[slot.responder].state;
}

const RelayState::Responder* RelayState::find_responder(NodeId x,
                                                        StringId s) const {
  const Slot* slot = index_.find(pack(x, s));
  if (slot == nullptr || slot->responder == kNone) return nullptr;
  return &responders_[slot->responder].state;
}

// ----- serve order -----------------------------------------------------------
//
// Each order_* replays the role's arrival log into a fresh ReplayMap — one
// insert per entry, in arrival order, exactly the inserts the old map saw
// (its repeated emplaces of a present key changed nothing) — and collects
// the due entries in the replayed map's iteration order.

void RelayState::order_pending(StringId current, RelayScratch& scratch) const {
  // Was unordered_map<uint64_t, PollLabel>, one emplace per retained pull.
  auto replay = replay_map<std::uint64_t>(scratch);
  for (std::uint32_t i = 0; i < pending_.size(); ++i) {
    replay.try_emplace(pending_[i].xs, i);
  }
  scratch.due.clear();
  for (const auto& [xs, i] : replay) {
    if (s_of(xs) == current) scratch.due.push_back(i);
  }
}

void RelayState::order_fw1(StringId current, std::uint32_t d,
                           RelayScratch& scratch) const {
  // Was unordered_map<uint64_t, unordered_map<NodeId, Fw1Tally>>: one outer
  // try_emplace per (x, s), then one inner try_emplace per w. The first
  // entry of each (x, s) is its chain's head.
  auto outer = replay_map<std::uint64_t>(scratch);
  for (std::uint32_t i = 0; i < fw1_.size(); ++i) {
    outer.try_emplace(fw1_[i].xs, i);
  }
  scratch.due.clear();
  for (const auto& [xs, head] : outer) {
    if (s_of(xs) != current) continue;
    auto inner = replay_map<NodeId>(scratch);
    for (std::uint32_t j = head; j != kNone; j = fw1_[j].next) {
      inner.try_emplace(fw1_[j].w, j);
    }
    for (const auto& [w, j] : inner) {
      const Fw1Tally& t = fw1_[j].tally;
      if (!t.fired && t.slots * 2 > d) scratch.due.push_back(j);
    }
  }
}

void RelayState::order_responders(StringId current, std::uint32_t d,
                                  RelayScratch& scratch) const {
  // Was unordered_map<uint64_t, ResponderState>, one try_emplace per (x, s)
  // from the first Poll or Fw2.
  auto replay = replay_map<std::uint64_t>(scratch);
  for (std::uint32_t i = 0; i < responders_.size(); ++i) {
    replay.try_emplace(responders_[i].xs, i);
  }
  scratch.due.clear();
  for (const auto& [xs, i] : replay) {
    const Responder& st = responders_[i].state;
    if (s_of(xs) == current && !st.answered && st.polled && st.slots * 2 > d) {
      scratch.due.push_back(i);
    }
  }
}

void RelayState::charge_mem(support::MemBudget& mem) const {
  mem.charge(support::flat_table_bytes(index_.size(), sizeof(Slot)));
  mem.charge_vector(pending_);
  mem.charge_vector(fw1_);
  mem.charge_vector(responders_);
}

}  // namespace fba::aer
