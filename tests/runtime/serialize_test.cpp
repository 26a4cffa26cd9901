// ByteWriter/ByteReader: round trips and underflow detection.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "runtime/serialize.hpp"

namespace aacc::rt {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  ByteWriter w;
  w.write(std::uint32_t{42});
  w.write(std::int64_t{-7});
  w.write(3.25);
  w.write(std::uint8_t{255});
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.read<std::uint32_t>(), 42u);
  EXPECT_EQ(r.read<std::int64_t>(), -7);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::uint8_t>(), 255);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VectorRoundTrip) {
  ByteWriter w;
  const std::vector<std::uint32_t> v{1, 2, 3, 4, 5};
  const std::vector<std::uint64_t> empty;
  w.write_vec(v);
  w.write_vec(empty);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.read_vec<std::uint32_t>(), v);
  EXPECT_TRUE(r.read_vec<std::uint64_t>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter w;
  w.write_str("hello");
  w.write_str("");
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.read_str(), "hello");
  EXPECT_EQ(r.read_str(), "");
}

TEST(Serialize, UnderflowThrows) {
  ByteWriter w;
  w.write(std::uint16_t{1});
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(r.read<std::uint64_t>(), std::logic_error);
}

TEST(Serialize, VectorUnderflowThrows) {
  ByteWriter w;
  w.write(std::uint64_t{1000});  // claims 1000 elements, provides none
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(r.read_vec<std::uint32_t>(), std::logic_error);
}

TEST(Serialize, TakeResetsWriter) {
  ByteWriter w;
  w.write(std::uint32_t{1});
  EXPECT_EQ(w.size(), 4u);
  (void)w.take();
  EXPECT_EQ(w.size(), 0u);
}

// ---------------------------------------------------------------- wire v2

TEST(Varint, SingleByteBoundary) {
  // 0 and 127 fit one byte; 128 needs two.
  for (const std::uint64_t v : {0ull, 1ull, 127ull}) {
    ByteWriter w;
    w.write_varint(v);
    EXPECT_EQ(w.size(), 1u) << v;
    const auto buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.read_varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Varint, TwoByteBoundary) {
  for (const std::uint64_t v : {128ull, 255ull, 16383ull}) {
    ByteWriter w;
    w.write_varint(v);
    EXPECT_EQ(w.size(), 2u) << v;
    const auto buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.read_varint(), v);
  }
}

TEST(Varint, FiveByteBoundary) {
  // 2^28 .. 2^35-1 take five bytes; the full u32 range (incl. the kInfDist
  // bit pattern) must round-trip.
  for (const std::uint64_t v :
       {1ull << 28, 0xffffffffull, (1ull << 35) - 1}) {
    ByteWriter w;
    w.write_varint(v);
    EXPECT_EQ(w.size(), 5u) << v;
    const auto buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.read_varint(), v);
  }
}

TEST(Varint, FullU64RoundTrip) {
  ByteWriter w;
  w.write_varint(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(w.size(), 10u);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.read_varint(), std::numeric_limits<std::uint64_t>::max());
}

TEST(WireV2, SentinelMapping) {
  EXPECT_EQ(encode_u32_sentinel(kInfDist), kSentinelCode);
  EXPECT_EQ(decode_u32_sentinel(kSentinelCode), kInfDist);
  EXPECT_EQ(decode_u32_sentinel(encode_u32_sentinel(0u)), 0u);
  // The largest finite value (saturating arithmetic caps at kInfDist - 1).
  EXPECT_EQ(decode_u32_sentinel(encode_u32_sentinel(kInfDist - 1)),
            kInfDist - 1);
}

TEST(WireV2, PackedU32RoundTrip) {
  const std::vector<std::uint32_t> v{0, 1, kInfDist, 127, 128, kInfDist - 1};
  ByteWriter w;
  write_packed_u32s(w, v);
  // count byte + codes {1, 2, 0, 128, 129, 2^32-1} = 1 + 1+1+1+2+2+5
  EXPECT_EQ(w.size(), 13u);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(read_packed_u32s(r), v);
  EXPECT_TRUE(r.done());
}

TEST(WireV2, AscendingIdsRoundTrip) {
  const std::vector<VertexId> ids{3, 4, 5, 100, 70000};
  ByteWriter w;
  write_ascending_ids(w, ids);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(read_ascending_ids(r), ids);
  EXPECT_TRUE(r.done());

  ByteWriter we;
  write_ascending_ids(we, {});
  const auto bufe = we.take();
  ByteReader re(bufe);
  EXPECT_TRUE(read_ascending_ids(re).empty());
}

TEST(WireV2, DenseAscendingRunIsOneBytePerId) {
  // Consecutive ids delta-encode to 0x00 bytes.
  std::vector<VertexId> ids(100);
  for (VertexId i = 0; i < 100; ++i) ids[i] = 1000 + i;
  ByteWriter w;
  write_ascending_ids(w, ids);
  EXPECT_EQ(w.size(), 1u + 2u + 99u);  // count + first id + 99 zero deltas
}

TEST(DvRecord, V2RoundTrip) {
  const std::vector<std::pair<VertexId, Dist>> entries{
      {2, 1}, {3, 7}, {9, kInfDist}, {70000, 130}};
  ByteWriter w;
  write_dv_record(w, 42, entries);
  const auto buf = w.take();
  ByteReader r(buf);
  DvRecordReader rec(r);
  EXPECT_EQ(rec.vid(), 42u);
  ASSERT_EQ(rec.count(), entries.size());
  for (const auto& e : entries) EXPECT_EQ(rec.next(), e);
  EXPECT_TRUE(r.done());
}

TEST(DvRecord, UnknownVersionRejected) {
  ByteWriter w;
  w.write(std::uint8_t{9});
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(DvRecordReader rec(r), std::logic_error);
  // The retired fixed-width v1 layout is no longer decoded either.
  ByteWriter w1;
  w1.write(std::uint8_t{1});
  w1.write(VertexId{7});
  w1.write(std::uint32_t{1});
  w1.write(VertexId{5});
  w1.write(Dist{2});
  const auto buf1 = w1.take();
  ByteReader r1(buf1);
  EXPECT_THROW(DvRecordReader rec(r1), std::logic_error);
}

// ---- varint codec: golden bytes and hostile input ------------------------

std::vector<std::uint8_t> bytes_of(const ByteWriter& w) {
  std::vector<std::uint8_t> out;
  for (const std::byte b : w.view()) {
    out.push_back(std::to_integer<std::uint8_t>(b));
  }
  return out;
}

std::vector<std::byte> to_buffer(const std::vector<std::uint8_t>& raw) {
  std::vector<std::byte> out;
  for (const std::uint8_t b : raw) out.push_back(std::byte{b});
  return out;
}

/// Expects `fn` to throw std::logic_error whose message names `what`.
template <typename Fn>
void expect_check_failure(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "expected a failure naming '" << what << "'";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

const std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>&
varint_goldens() {
  static const std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
      goldens{
          {0, {0x00}},
          {127, {0x7f}},
          {128, {0x80, 0x01}},
          {16383, {0xff, 0x7f}},
          {0xFFFFFFFFULL, {0xff, 0xff, 0xff, 0xff, 0x0f}},
          {~0ULL, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
      };
  return goldens;
}

TEST(Varint, GoldenBytes) {
  for (const auto& [v, want] : varint_goldens()) {
    ByteWriter w;
    w.write_varint(v);
    EXPECT_EQ(bytes_of(w), want) << v;
  }
}

TEST(Varint, RoundTripAcrossTheFastPathBoundary) {
  // Decode each value with exactly 9, 10 and 11 bytes left in the buffer
  // (padding after the varint), so both the bounded-tail decode and the
  // at-least-kMaxVarintBytes decode run, and the switch between them.
  for (const std::size_t left : {kMaxVarintBytes - 1, kMaxVarintBytes,
                                 kMaxVarintBytes + 1}) {
    for (const auto& [v, golden] : varint_goldens()) {
      if (golden.size() > left) continue;
      ByteWriter w;
      w.write(std::uint8_t{0xAA});  // consumed first: decode starts mid-buffer
      w.write_varint(v);
      for (std::size_t i = golden.size(); i < left; ++i) {
        w.write(std::uint8_t{0x80});
      }
      const auto buf = w.take();
      ByteReader r(buf);
      EXPECT_EQ(r.read<std::uint8_t>(), 0xAA);
      ASSERT_EQ(r.remaining(), left);
      EXPECT_EQ(r.read_varint(), v) << v << " with " << left << " bytes left";
      EXPECT_EQ(r.remaining(), left - golden.size());
    }
  }
}

TEST(Varint, TruncatedVarintIsAnUnderflow) {
  // 1..9 continuation bytes and then the end of the buffer, behind bytes
  // that were already consumed.
  for (std::size_t k = 1; k < kMaxVarintBytes; ++k) {
    std::vector<std::uint8_t> raw(12, 0x01);
    raw.insert(raw.end(), k, 0x80);
    const auto buf = to_buffer(raw);
    ByteReader r(buf);
    for (int i = 0; i < 12; ++i) EXPECT_EQ(r.read_varint(), 1u);
    expect_check_failure([&] { (void)r.read_varint(); }, "message underflow");
  }
  const std::vector<std::byte> empty;
  ByteReader r(empty);
  expect_check_failure([&] { (void)r.read_varint(); }, "message underflow");
}

TEST(Varint, TenContinuationBytesAreAnOverflow) {
  // The same error whether the runaway varint ends the buffer or is
  // followed by more bytes, and whatever the value bits.
  for (const std::uint8_t cont : {std::uint8_t{0x80}, std::uint8_t{0xff}}) {
    for (std::size_t extra = 0; extra <= 3; ++extra) {
      std::vector<std::uint8_t> raw(kMaxVarintBytes, cont);
      raw.insert(raw.end(), extra, 0x01);
      const auto buf = to_buffer(raw);
      ByteReader r(buf);
      expect_check_failure([&] { (void)r.read_varint(); }, "varint overflow");
    }
  }
}

TEST(DvRecord, GoldenBytes) {
  ByteWriter w;
  write_dv_record(w, 300, {{2, 1}, {3, 7}, {9, kInfDist}, {70000, 130}});
  // version, vid 300, count 4, then (target delta, dist code) pairs:
  // (2, 2) (0, 8) (5, 0 = poison) (69990, 131).
  const std::vector<std::uint8_t> want{0x02, 0xac, 0x02, 0x04, 0x02,
                                       0x02, 0x00, 0x08, 0x05, 0x00,
                                       0xe6, 0xa2, 0x04, 0x83, 0x01};
  EXPECT_EQ(bytes_of(w), want);
}

TEST(DvRecord, TruncatedRecordThrows) {
  // Every proper prefix of a record must fail with a typed error while
  // decoding, never read past the buffer (the sanitizer build checks it).
  std::vector<std::pair<VertexId, Dist>> entries;
  for (VertexId t = 0; t < 40; ++t) entries.emplace_back(t * 977, t * 31 + 5);
  ByteWriter w;
  write_dv_record(w, 123456, entries);
  const auto full = w.take();
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::vector<std::byte> cut(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    ByteReader r(cut);
    EXPECT_THROW(
        {
          DvRecordReader rec(r);
          for (std::uint32_t i = 0; i < rec.count(); ++i) (void)rec.next();
        },
        std::logic_error)
        << "prefix of " << len << " bytes";
  }
}

TEST(DvRecord, EmptyRecordRoundTrip) {
  ByteWriter w;
  write_dv_record(w, 3, {});
  const auto buf = w.take();
  ByteReader r(buf);
  DvRecordReader rec(r);
  EXPECT_EQ(rec.vid(), 3u);
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace aacc::rt
