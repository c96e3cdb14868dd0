// CONGEST-model messages.
//
// In the CONGEST model a node may send one O(log n)-bit message per incident
// edge per synchronous round.  We make the bound concrete and *enforced*:
// a message carries a small tag plus up to four integer fields, and its
// logical size — 8 tag bits plus the significant bits of each field — must
// not exceed the network's bandwidth B(n) = 16·⌈log₂ n⌉ bits.  Algorithms
// that try to smuggle wide values through an edge throw instead of
// silently breaking the model.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>

#include "util/check.hpp"

namespace pg::congest {

struct Message {
  std::uint8_t kind = 0;
  std::uint8_t num_fields = 0;
  std::array<std::int64_t, 4> fields{};

  Message() = default;
  Message(std::uint8_t k, std::initializer_list<std::int64_t> fs) : kind(k) {
    PG_REQUIRE(fs.size() <= fields.size(), "too many message fields");
    for (std::int64_t f : fs) fields[num_fields++] = f;
  }

  std::int64_t at(std::size_t i) const {
    PG_REQUIRE(i < num_fields, "message field index out of range");
    return fields[i];
  }

  /// Significant bits of a signed value (two's-complement width incl. sign).
  static int significant_bits(std::int64_t value) {
    const auto magnitude =
        static_cast<std::uint64_t>(value < 0 ? ~value : value);
    return std::bit_width(magnitude) + 1;
  }

  /// Logical size used for bandwidth accounting.
  int logical_bits() const {
    int bits = 8;  // tag
    for (std::size_t i = 0; i < num_fields; ++i)
      bits += significant_bits(fields[i]);
    return bits;
  }
};

/// Bandwidth available per edge per round in an n-node network:
/// B(n) = 16·⌈log₂ n⌉ bits (the constant instantiates the model's O(log n)).
int bandwidth_bits(std::size_t n);

/// Wire-format message: the 16-byte encoding the simulator stores per
/// directed-edge slot and inbox entry (a `Message` is 40 bytes, and at
/// 2m slots per topology those buffers dominate the simulator's memory).
///
/// Logical layout over the four little-endian words (128 bits):
///   bits 0–7    kind
///   bits 8–10   num_fields (0..4)
///   bit  11     wide flag
///   bits 12–127 payload: num_fields zigzag-encoded fields at a uniform
///               width derived from num_fields (1→64, 2→58, 3→38, 4→29
///               bits), field 0 in the lowest bits
///
/// Fields that do not fit the uniform width (possible only for 3–4 field
/// messages carrying values ≥ 2³⁷/2²⁸ — legal under B(n) but rare) take
/// the wide path: the payload stores an index into an overflow pool owned
/// by the network, whose entries live exactly as long as the inbox
/// generation that references them.  Pool indices depend on send
/// interleaving, but decoding always yields the original `Message`, so
/// every decoded inbox is byte-identical at any thread count.
///
/// Storage is `uint32[4]` (align 4), so an inbox entry packing a 32-bit
/// reply slot next to a message costs 20 bytes, not 24.
class PackedMessage {
 public:
  /// Uniform per-field zigzag width for a message with `nf` fields.
  static constexpr int field_width(int nf) {
    return nf <= 1 ? 64 : nf == 2 ? 58 : nf == 3 ? 38 : 29;
  }

  /// Attempts the narrow encoding; false iff some field needs the pool.
  bool try_pack(const Message& m) {
    const int nf = m.num_fields;
    const int width = field_width(nf);
    unsigned __int128 acc = 0;
    for (int i = nf; i-- > 0;) {
      const std::uint64_t z = zigzag(m.fields[static_cast<std::size_t>(i)]);
      if (width < 64 && (z >> width) != 0) return false;
      acc = (acc << width) | z;
    }
    acc = (acc << kPayloadShift) |
          (static_cast<std::uint32_t>(m.num_fields) << 8) | m.kind;
    store(acc);
    return true;
  }

  /// Encodes the overflow form: fields live at `pool[pool_index]`.
  void pack_wide(const Message& m, std::uint32_t pool_index) {
    unsigned __int128 acc = pool_index;
    acc = (acc << kPayloadShift) | kWideBit |
          (static_cast<std::uint32_t>(m.num_fields) << 8) | m.kind;
    store(acc);
  }

  std::uint8_t kind() const { return static_cast<std::uint8_t>(w_[0] & 0xff); }
  std::uint8_t num_fields() const {
    return static_cast<std::uint8_t>((w_[0] >> 8) & 0x7);
  }

  /// Extracts field `i` (< num_fields()) in place; `pool` is as for
  /// `unpack`.  Equal to `unpack(pool).at(i)` without building a Message.
  std::int64_t field(std::size_t i,
                     const std::array<std::int64_t, 4>* pool) const {
    const unsigned __int128 acc = load();
    if ((acc & kWideBit) != 0)
      return pool[static_cast<std::uint32_t>(acc >> kPayloadShift)][i];
    const int width = field_width(num_fields());
    const auto z = static_cast<std::uint64_t>(
        acc >> (kPayloadShift + static_cast<int>(i) * width));
    return unzigzag(width >= 64 ? z : z & ((std::uint64_t{1} << width) - 1));
  }

  /// Decodes back to the 40-byte form.  `pool` is the network's overflow
  /// pool for the inbox generation this message was delivered in (unused
  /// by narrow messages, which is the overwhelmingly common case).
  Message unpack(const std::array<std::int64_t, 4>* pool) const {
    const unsigned __int128 acc = load();
    Message m;
    m.kind = kind();
    m.num_fields = num_fields();
    if ((acc & kWideBit) != 0) {
      const auto index =
          static_cast<std::uint32_t>(acc >> kPayloadShift);
      const std::array<std::int64_t, 4>& fields = pool[index];
      for (std::size_t i = 0; i < m.num_fields; ++i) m.fields[i] = fields[i];
      return m;
    }
    const int width = field_width(m.num_fields);
    unsigned __int128 payload = acc >> kPayloadShift;
    const std::uint64_t mask =
        width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    for (std::size_t i = 0; i < m.num_fields; ++i) {
      m.fields[i] = unzigzag(static_cast<std::uint64_t>(payload) & mask);
      payload >>= width;
    }
    return m;
  }

  /// Fault injection's structurally-safe payload corruption: flips exactly
  /// one bit chosen by `entropy` inside the narrow payload region, or — for
  /// field-less and wide messages, where payload bits are absent or alias a
  /// pool index — one kind bit.  The num_fields and wide bits are never
  /// touched, so a corrupted message still decodes through `unpack` and
  /// `field` as a well-formed (if wrong) Message.
  void corrupt(std::uint64_t entropy) {
    unsigned __int128 acc = load();
    const int nf = num_fields();
    if (nf == 0 || (acc & kWideBit) != 0) {
      acc ^= static_cast<unsigned __int128>(1) << (entropy % 8);  // kind bit
    } else {
      const auto span =
          static_cast<std::uint64_t>(nf) *
          static_cast<std::uint64_t>(field_width(nf));
      acc ^= static_cast<unsigned __int128>(1)
             << (kPayloadShift + entropy % span);
    }
    store(acc);
  }

 private:
  static constexpr int kPayloadShift = 12;
  static constexpr std::uint32_t kWideBit = 1u << 11;

  static std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }
  static std::int64_t unzigzag(std::uint64_t z) {
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  // The four words are the accumulator's little-endian limbs, so one
  // 16-byte copy moves them (the per-word shift assembly spilled through
  // the stack in hot read loops).
  void store(unsigned __int128 acc) { std::memcpy(w_, &acc, sizeof w_); }
  unsigned __int128 load() const {
    unsigned __int128 acc;
    std::memcpy(&acc, w_, sizeof acc);
    return acc;
  }

  std::uint32_t w_[4] = {0, 0, 0, 0};
};

static_assert(sizeof(PackedMessage) == 16);
static_assert(std::endian::native == std::endian::little,
              "PackedMessage copies its words as a little-endian integer");
static_assert(alignof(PackedMessage) == 4);

/// A delivered message read in place: `kind` and `num_fields` are copied
/// out of the packed header, and `at(i)` extracts one field on demand.
/// Valid as long as `*packed` and `pool` are — for an inbox entry, the
/// rest of the step that received it.
struct MessageView {
  std::uint8_t kind = 0;
  std::uint8_t num_fields = 0;
  const PackedMessage* packed = nullptr;
  const std::array<std::int64_t, 4>* pool = nullptr;

  std::int64_t at(std::size_t i) const {
    PG_REQUIRE(i < num_fields, "message field index out of range");
    return packed->field(i, pool);
  }
};

}  // namespace pg::congest
