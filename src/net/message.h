// Flat, value-type messages and wire-size accounting.
//
// The simulator's unit of traffic is Message: one POD-ish struct carrying a
// MessageKind tag plus the union of every protocol's fields (node ids, a
// poll label, an interned candidate string, a small inline bit payload).
// Messages move by value — no heap allocation, no virtual dispatch, no
// dynamic_cast on the delivery path. Every send is still charged its true
// encoded size, via a per-kind accounting table (kind_info) evaluated
// against the run's Wire parameters, so measured communication complexity
// matches what a faithful wire format would cost.
//
// The kind table is the single source of truth for sizes: correct nodes and
// adversary-forged traffic go through the same message_bit_size(), so a
// strategy cannot under-charge a forged message that shadows a real kind.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "support/intern.h"
#include "support/types.h"

namespace fba::sim {

/// Every message kind the simulator knows, across all protocols. The wire
/// namespace is per-protocol (a deployment runs one protocol, with at most
/// 16 kinds in flight), which is why the kind tag costs Wire::kKindTagBits
/// even though this cross-protocol registry is larger.
enum class MessageKind : std::uint8_t {
  kNone = 0,  ///< default-constructed / timer slots; never sent.

  // AER (Sections 3.1.1-3.1.2, Algorithms 1-3).
  kPush,
  kPoll,
  kPull,
  kFw1,
  kFw2,
  kAnswer,

  // AE committee tournament (ae/kssv.h).
  kContrib,
  kPkValue,
  kPkKing,
  kFinalSlice,

  // Retired: no protocol sends kPkExchange, kPkDecree, kSnowQuery or
  // kSnowReply any more (a standalone phase king and a Snowball baseline
  // used them). They keep their slots and kind-table rows because report
  // JSON lists every kind by name in enum order, the committed baselines
  // carry "pk-exchange" and "snow-q" and Report::from_json checks names and
  // order, and Aggregate::fingerprint hashes kinds 0..kPing unconditionally.
  kPkExchange,
  kPkDecree,

  // Baseline AE->E reductions.
  kBcast,      ///< FLOOD-ALL candidate broadcast.
  kQuery,      ///< SQRT-SAMPLE query (header-only).
  kReply,      ///< SQRT-SAMPLE reply.
  kSnowQuery,  ///< Retired (see kPkExchange).
  kSnowReply,  ///< Retired (see kPkExchange).

  // Test / micro-bench traffic.
  kPing,

  // Transport-level recovery sublayer (net/recovery.h): per-link delivery
  // acknowledgement. Emitted by the receiving engine, consumed by the
  // sending engine — never seen by actors or adversary strategies' deliver
  // path. Appended after kPing so the first 19 kinds keep their indices
  // (the pinned golden fingerprints hash exactly that legacy prefix).
  kAck,

  kCount,
};

inline constexpr std::size_t kNumMessageKinds =
    static_cast<std::size_t>(MessageKind::kCount);

constexpr std::size_t kind_index(MessageKind k) {
  return static_cast<std::size_t>(k);
}

/// Stable short name used in tables and logs ("push", "fw1", ...).
const char* kind_name(MessageKind k);

/// Encoding parameters of the deployment: how many bits a node id, a poll
/// label r (from the paper's domain R), an AE slice/phase index or slice
/// value, and a candidate string cost on the wire. A plain struct — protocol
/// harnesses fill in the fields they use and leave the rest zero.
struct Wire {
  std::size_t node_id_bits = 0;
  std::size_t label_bits = 0;
  std::size_t slice_bits = 0;  ///< AE slice-index field.
  std::size_t phase_bits = 0;  ///< AE phase-index field.
  std::size_t value_bits = 0;  ///< AE inline slice-value payload.

  /// Source of candidate-string sizes; when null, every string costs
  /// `fixed_string_bits` (test wires).
  const StringTable* table = nullptr;
  std::size_t fixed_string_bits = 0;

  std::size_t string_bits(StringId id) const {
    return table != nullptr ? table->bits(id) : fixed_string_bits;
  }

  /// Fixed per-message overhead: message-kind tag plus the authenticated
  /// sender identity (channels are authenticated, Section 2.1).
  std::size_t header_bits() const { return kKindTagBits + node_id_bits; }

  static constexpr std::size_t kKindTagBits = 4;
};

/// One in-memory message. Fields are shared across kinds; the per-kind
/// accounting table (kind_info) decides which of them a kind pays for.
struct Message {
  MessageKind kind = MessageKind::kNone;
  NodeId a = 0;            ///< first node-id field (AER: requester x).
  NodeId b = 0;            ///< second node-id field (AER: poll target w).
  StringId s = kNoString;  ///< interned candidate string.
  PollLabel r = 0;         ///< poll label from the paper's domain R.
  std::uint64_t value = 0;  ///< inline bit payload (AE slice / pk values).
  std::uint32_t slice = 0;  ///< AE slice index.
  std::uint32_t phase = 0;  ///< phase index / round tag / test tag.

  /// Kind-checked accessor, the replacement for the old payload_cast<T>:
  /// returns this message when it is of kind `k`, nullptr otherwise.
  const Message* as(MessageKind k) const { return kind == k ? this : nullptr; }
};

/// Per-kind wire-size accounting: how many node-id / label / string / slice /
/// phase / value fields a kind charges, plus any fixed payload bits.
struct KindInfo {
  const char* name = "?";
  std::uint8_t node_ids = 0;  ///< x `Wire::node_id_bits`
  std::uint8_t labels = 0;    ///< x `Wire::label_bits`
  std::uint8_t strings = 0;   ///< x `Wire::string_bits(m.s)`
  std::uint8_t slices = 0;    ///< x `Wire::slice_bits`
  std::uint8_t phases = 0;    ///< x `Wire::phase_bits`
  std::uint8_t values = 0;    ///< x `Wire::value_bits`
  std::uint16_t fixed_bits = 0;
};

namespace detail {
// Golden sizes (see tests/message_test.cpp): each row reproduces the old
// per-payload bit_size() formula for that kind. Inline so the per-send
// accounting (one lookup per message) costs an index, not a call.
inline constexpr std::array<KindInfo, kNumMessageKinds> kKindTable = {{
    // name          ids lab str sli pha val fixed
    {"none", 0, 0, 0, 0, 0, 0, 0},
    {"push", 0, 0, 1, 0, 0, 0, 0},
    {"poll", 0, 1, 1, 0, 0, 0, 0},
    {"pull", 0, 1, 1, 0, 0, 0, 0},
    {"fw1", 2, 1, 1, 0, 0, 0, 0},
    {"fw2", 1, 1, 1, 0, 0, 0, 0},
    {"answer", 0, 0, 1, 0, 0, 0, 0},
    {"contrib", 0, 0, 0, 1, 0, 1, 0},
    {"pk-val", 0, 0, 0, 1, 1, 1, 0},
    {"pk-king", 0, 0, 0, 1, 1, 1, 0},
    {"final", 0, 0, 0, 1, 0, 1, 0},
    {"pk-exchange", 0, 0, 0, 0, 0, 0, 64 + 8},
    {"pk-decree", 0, 0, 0, 0, 0, 0, 64 + 8},
    {"bcast", 0, 0, 1, 0, 0, 0, 0},
    {"query", 0, 0, 0, 0, 0, 0, 0},
    {"reply", 0, 0, 1, 0, 0, 0, 0},
    {"snow-q", 0, 0, 0, 0, 0, 0, 16},
    {"snow-r", 0, 0, 1, 0, 0, 0, 16},
    {"ping", 0, 0, 0, 0, 0, 0, 16},
    // 32 fixed bits: the (slot, gen) pair identifying the acked send. The
    // common header (kind tag + authenticated sender id) is charged on top,
    // like every other kind.
    {"ack", 0, 0, 0, 0, 0, 0, 32},
}};
}  // namespace detail

inline const KindInfo& kind_info(MessageKind k) {
  const std::size_t i = kind_index(k);
  return detail::kKindTable[i < kNumMessageKinds ? i : 0];
}

/// Encoded size of a message's fields, excluding the common header. A pure
/// table walk: no virtual call, no dispatch on the payload type.
inline std::size_t message_bit_size(const Message& m, const Wire& w) {
  const KindInfo& k = kind_info(m.kind);
  std::size_t bits = k.fixed_bits;
  bits += k.node_ids * w.node_id_bits;
  bits += k.labels * w.label_bits;
  bits += k.slices * w.slice_bits;
  bits += k.phases * w.phase_bits;
  bits += k.values * w.value_bits;
  if (k.strings != 0) bits += k.strings * w.string_bits(m.s);
  return bits;
}

}  // namespace fba::sim
