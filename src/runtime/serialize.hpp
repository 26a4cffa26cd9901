// Byte-buffer serialization for inter-rank messages.
//
// Rank state may only cross rank boundaries through these buffers — that is
// what keeps the thread-based runtime an honest stand-in for MPI: byte
// counts fed into the LogGP model are the real payload sizes, and no rank
// can observe another's memory.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace aacc::rt {

/// Longest LEB128 encoding of a u64: ceil(64 / 7) bytes.
inline constexpr std::size_t kMaxVarintBytes = 10;

class ByteWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  /// Appends raw bytes with no length prefix (pre-encoded records that fan
  /// out to several destinations are assembled once and appended per
  /// destination).
  void write_bytes(std::span<const std::byte> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// LEB128 unsigned varint: 7 value bits per byte, high bit = continue.
  /// 1 byte for values < 128, 2 bytes < 16384, at most 5 bytes for u32
  /// payloads and kMaxVarintBytes for the full u64 range. Encoded on the
  /// stack and appended once: the DV hot path writes two varints per entry,
  /// and a per-byte append dominated send assembly.
  void write_varint(std::uint64_t v) {
    std::array<std::byte, kMaxVarintBytes> tmp;
    std::size_t n = 0;
    while (v >= 0x80) {
      tmp[n++] = static_cast<std::byte>((v & 0x7f) | 0x80);
      v >>= 7;
    }
    tmp[n++] = static_cast<std::byte>(v);
    buf_.insert(buf_.end(), tmp.data(), tmp.data() + n);
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vec(const std::vector<T>& v) {
    write(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }

  void write_str(const std::string& s) {
    write(static_cast<std::uint64_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Borrowed view of the accumulated bytes (valid until the next write).
  [[nodiscard]] std::span<const std::byte> view() const { return buf_; }

  /// Drops the contents but keeps the capacity — per-step scratch writers
  /// reuse their allocation across RC steps.
  void clear() { buf_.clear(); }

  /// Moves the accumulated bytes out; the writer is reusable afterwards.
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

// ------------------------------------------------------------------- CRC32
//
// Software CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) for the
// reliable-transport frame checksum (wire format v2.1, docs/PROTOCOL.md).
// Table-driven; the table is built at compile time so the header stays
// dependency-free.

namespace detail {
consteval std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();
}  // namespace detail

/// Incremental update: feed buffers in sequence, starting from
/// crc32_init() and finishing with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFU; }
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc,
                                                std::span<const std::byte> data) {
  for (const std::byte b : data) {
    crc = detail::kCrc32Table[(crc ^ std::to_integer<std::uint32_t>(b)) & 0xFFU] ^
          (crc >> 8);
  }
  return crc;
}
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t crc) {
  return crc ^ 0xFFFFFFFFU;
}

/// One-shot convenience.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::byte> data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> buf) : buf_(buf) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    AACC_CHECK_MSG(pos_ + sizeof(T) <= buf_.size(), "message underflow");
    T value;
    std::memcpy(&value, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vec() {
    const auto n = read<std::uint64_t>();
    AACC_CHECK_MSG(pos_ + n * sizeof(T) <= buf_.size(), "message underflow");
    std::vector<T> v(n);
    if (n != 0) std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  std::string read_str() {
    const auto n = read<std::uint64_t>();
    AACC_CHECK_MSG(pos_ + n <= buf_.size(), "message underflow");
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Decodes one LEB128 varint. The bounds check happens once per varint,
  /// not per byte: with at least kMaxVarintBytes left the loop cannot run
  /// past the buffer, and in the buffer tail it stops at the last byte. A
  /// varint cut off by the end of the buffer is a "message underflow"; one
  /// whose first kMaxVarintBytes bytes all carry the continuation bit is a
  /// "varint overflow", wherever it sits in the buffer.
  std::uint64_t read_varint() {
    const std::size_t limit = std::min(buf_.size() - pos_, kMaxVarintBytes);
    const auto* p = reinterpret_cast<const std::uint8_t*>(buf_.data() + pos_);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < limit; ++i) {
      v |= static_cast<std::uint64_t>(p[i] & 0x7f) << (7 * i);
      if ((p[i] & 0x80) == 0) {
        pos_ += i + 1;
        return v;
      }
    }
    AACC_CHECK_MSG(limit == kMaxVarintBytes, "message underflow");
    AACC_CHECK_MSG(false, "varint overflow");
    return 0;  // unreachable
  }

  [[nodiscard]] bool done() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- wire v2
//
// Compressed codecs for the DV-update message path and checkpoints (see
// docs/PROTOCOL.md §"Wire format v2"). Values of u32 domains with an
// all-ones sentinel (kInfDist / kNoVertex) map through code = 0 for the
// sentinel, value + 1 otherwise, so the common small values stay 1-byte
// varints and the sentinel costs 1 byte instead of 5.

inline constexpr std::uint64_t kSentinelCode = 0;

/// kInfDist / kNoVertex → 0, v → v + 1. Saturating arithmetic guarantees
/// every non-sentinel value is < 2^32 - 1, so v + 1 never collides.
[[nodiscard]] constexpr std::uint64_t encode_u32_sentinel(std::uint32_t v) {
  return v == std::numeric_limits<std::uint32_t>::max()
             ? kSentinelCode
             : static_cast<std::uint64_t>(v) + 1;
}
[[nodiscard]] constexpr std::uint32_t decode_u32_sentinel(std::uint64_t code) {
  return code == kSentinelCode ? std::numeric_limits<std::uint32_t>::max()
                               : static_cast<std::uint32_t>(code - 1);
}

/// Varint-packs a u32 vector under the sentinel mapping (checkpoint rows:
/// distances and next hops are mostly small or the sentinel).
inline void write_packed_u32s(ByteWriter& w, const std::vector<std::uint32_t>& v) {
  w.write_varint(v.size());
  for (const std::uint32_t x : v) w.write_varint(encode_u32_sentinel(x));
}
inline std::vector<std::uint32_t> read_packed_u32s(ByteReader& r) {
  const auto n = r.read_varint();
  std::vector<std::uint32_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    v.push_back(decode_u32_sentinel(r.read_varint()));
  }
  return v;
}

/// Delta-encodes a strictly ascending id list: first id raw, then
/// (id - prev - 1) — dense dirty ranges become runs of 0x00 bytes.
inline void write_ascending_ids(ByteWriter& w, const std::vector<VertexId>& ids) {
  w.write_varint(ids.size());
  VertexId prev = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i == 0) {
      w.write_varint(ids[0]);
    } else {
      AACC_DCHECK(ids[i] > prev);
      w.write_varint(ids[i] - prev - 1);
    }
    prev = ids[i];
  }
}
inline std::vector<VertexId> read_ascending_ids(ByteReader& r) {
  const auto n = r.read_varint();
  std::vector<VertexId> ids;
  ids.reserve(n);
  VertexId prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto delta = static_cast<VertexId>(r.read_varint());
    prev = (i == 0) ? delta : prev + delta + 1;
    ids.push_back(prev);
  }
  return ids;
}

// ---- DV-update records --------------------------------------------------
//
// One record carries the changed entries of one row to a subscriber:
//
//   u8 version (= 2), varint vid, varint count,
//   count × (varint target-delta, varint dist-code)
//
// Targets are strictly ascending; the first delta is the target itself,
// later deltas are (target - prev - 1); dist-code is the sentinel mapping
// above (poison markers ship as 1 byte). The version byte stays so a future
// codec can be told apart; any other value is rejected.

inline constexpr std::uint8_t kDvRecordV2 = 2;

/// Entries must be sorted by target id (ascending, unique).
inline void write_dv_record(ByteWriter& w, VertexId vid,
                            const std::vector<std::pair<VertexId, Dist>>& entries) {
  w.write(kDvRecordV2);
  w.write_varint(vid);
  w.write_varint(entries.size());
  VertexId prev = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto [t, d] = entries[i];
    if (i == 0) {
      w.write_varint(t);
    } else {
      AACC_DCHECK(t > prev);
      w.write_varint(t - prev - 1);
    }
    prev = t;
    w.write_varint(encode_u32_sentinel(d));
  }
}

/// Streaming decoder for one record: construct, read vid()/count(), then
/// call next() exactly count() times.
class DvRecordReader {
 public:
  explicit DvRecordReader(ByteReader& r) : r_(r) {
    AACC_CHECK_MSG(r_.read<std::uint8_t>() == kDvRecordV2,
                   "unknown DV record version");
    vid_ = static_cast<VertexId>(r_.read_varint());
    count_ = static_cast<std::uint32_t>(r_.read_varint());
  }

  [[nodiscard]] VertexId vid() const { return vid_; }
  [[nodiscard]] std::uint32_t count() const { return count_; }

  std::pair<VertexId, Dist> next() {
    AACC_DCHECK(read_ < count_);
    const auto delta = static_cast<VertexId>(r_.read_varint());
    prev_ = (read_ == 0) ? delta : prev_ + delta + 1;
    ++read_;
    return {prev_, decode_u32_sentinel(r_.read_varint())};
  }

 private:
  ByteReader& r_;
  VertexId vid_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t read_ = 0;
  VertexId prev_ = 0;
};

}  // namespace aacc::rt
