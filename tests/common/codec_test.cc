// Golden bytes for the shared codec (common/codec.h): every primitive's
// exact encoding, the cursor's poisoning, the CRC frame, and hex pins
// for a WAL record frame and a one-pattern FTPT section. The pins are
// the bytes these formats had before they shared the codec, so any
// layout drift in a format built on it fails here.

#include "common/codec.h"

#include <gtest/gtest.h>

#include <string>

#include "io/wal.h"
#include "tpt/frozen_tpt.h"
#include "tpt/tpt_tree.h"

namespace hpm {
namespace {

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xf];
  }
  return hex;
}

TEST(CodecTest, EachPrimitiveHasItsExactEncoding) {
  const auto encoded = [](auto put) {
    std::string out;
    put(&out);
    return Hex(out);
  };
  EXPECT_EQ(encoded([](std::string* o) { codec::PutU8(o, 0xAB); }), "ab");
  EXPECT_EQ(encoded([](std::string* o) { codec::PutU32(o, 0x01020304); }),
            "04030201");
  EXPECT_EQ(encoded([](std::string* o) { codec::PutI32(o, -2); }),
            "feffffff");
  EXPECT_EQ(encoded([](std::string* o) {
              codec::PutU64(o, 0x0102030405060708ull);
            }),
            "0807060504030201");
  EXPECT_EQ(encoded([](std::string* o) { codec::PutI64(o, -2); }),
            "feffffffffffffff");
  EXPECT_EQ(encoded([](std::string* o) { codec::PutF64(o, 1.5); }),
            "000000000000f83f");
  EXPECT_EQ(encoded([](std::string* o) { codec::PutString(o, "hi"); }),
            "020000006869");
  EXPECT_EQ(encoded([](std::string* o) { codec::PutBytes(o, "xyz", 3); }),
            "78797a");
}

TEST(CodecTest, CursorReadsBackEveryPrimitive) {
  std::string buf;
  codec::PutI32(&buf, -7);
  codec::PutBytes(&buf, "raw", 3);
  codec::PutString(&buf, "tail");
  codec::Cursor cursor(buf);
  int32_t i32 = 0;
  char raw[3] = {};
  std::string s;
  EXPECT_TRUE(cursor.I32(&i32));
  EXPECT_EQ(cursor.pos(), 4u);
  EXPECT_TRUE(cursor.Bytes(raw, sizeof(raw)));
  EXPECT_EQ(cursor.remaining(), 8u);
  EXPECT_FALSE(cursor.done());
  EXPECT_TRUE(cursor.String(&s));
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(std::string(raw, 3), "raw");
  EXPECT_EQ(s, "tail");
}

TEST(CodecTest, UnderrunPoisonsAndLeavesTheOutputUntouched) {
  std::string buf;
  codec::PutU32(&buf, 7);
  codec::Cursor cursor(buf);
  uint64_t wide = 99;
  EXPECT_FALSE(cursor.U64(&wide));
  EXPECT_EQ(wide, 99u);
  EXPECT_EQ(cursor.pos(), 0u);
  uint8_t narrow = 0;
  EXPECT_FALSE(cursor.U8(&narrow));  // poisoned: even a fitting read fails
  EXPECT_FALSE(cursor.ok());
  EXPECT_FALSE(cursor.done());
}

TEST(CodecTest, LyingLengthFieldPoisons) {
  std::string buf;
  codec::PutU32(&buf, 1000);  // promises far more than follows
  buf += "abc";
  codec::Cursor cursor(buf);
  std::string s = "unchanged";
  EXPECT_FALSE(cursor.String(&s));
  EXPECT_EQ(s, "unchanged");
  EXPECT_FALSE(cursor.ok());

  // A length within the bytes but past the caller's bound poisons too.
  std::string bounded;
  codec::PutString(&bounded, "0123456789");
  codec::Cursor capped(bounded);
  EXPECT_FALSE(capped.String(&s, 5));
  EXPECT_FALSE(capped.ok());
}

TEST(CodecTest, FrameIsLengthCrcPayload) {
  // CRC32("abc") = 0x352441c2.
  const std::string frame = codec::EncodeFrame("abc");
  EXPECT_EQ(Hex(frame), "03000000c2412435616263");
  const codec::FrameHeader header = codec::ParseFrameHeader(frame.data());
  EXPECT_EQ(header.length, 3u);
  EXPECT_EQ(header.crc, 0x352441c2u);
  EXPECT_TRUE(header.Verifies(frame.data() + codec::kFrameHeaderBytes));
  std::string flipped = frame;
  flipped.back() ^= 0x01;
  EXPECT_FALSE(header.Verifies(flipped.data() + codec::kFrameHeaderBytes));
}

TEST(CodecTest, WalRecordFramesArePinned) {
  WalRecord report;
  report.type = WalRecord::Type::kReport;
  report.id = 7;
  report.t = 42;
  report.x = 1.5;
  report.y = -2.25;
  EXPECT_EQ(Hex(EncodeWalFrame(report)),
            "21000000" "7cd5ba5a" "01" "0700000000000000" "2a00000000000000"
            "000000000000f83f" "00000000000002c0");

  WalRecord rejected;
  rejected.type = WalRecord::Type::kRejected;
  rejected.id = -3;
  EXPECT_EQ(Hex(EncodeWalFrame(rejected)),
            "09000000" "203bbcce" "02" "fdffffffffffffff");

  WalRecord baseline;
  baseline.type = WalRecord::Type::kRejectedBaseline;
  baseline.id = 9;
  baseline.t = 4;
  EXPECT_EQ(Hex(EncodeWalFrame(baseline)),
            "11000000" "1daa44c3" "03" "0900000000000000" "0400000000000000");
}

TEST(CodecTest, OnePatternFtptSectionIsPinned) {
  PatternKey key(5, 3);
  key.mutable_premise().Set(1);
  key.mutable_premise().Set(3);
  key.mutable_consequence().Set(2);
  IndexedPattern pattern;
  pattern.key = key;
  pattern.confidence = 0.5;
  pattern.consequence_region = 2;
  pattern.pattern_id = 0;
  TptTree tree;
  ASSERT_TRUE(tree.Insert(pattern).ok());
  std::string section;
  FrozenTpt::Freeze(tree).AppendTo(&section);
  EXPECT_EQ(Hex(section),
            // Header: magic, version, premise bits, consequence bits,
            // nodes, entries, payloads.
            "46545054" "01000000" "05000000" "03000000" "01000000"
            "01000000" "01000000"
            // The node (first entry, entries, leaf), its entry's target,
            // the key block (consequence word, premise word), the payload
            // (confidence, consequence region, pattern id), the CRC.
            "00000000" "01000000" "01000000" "00000000"
            "0400000000000000" "0a00000000000000"
            "000000000000e03f" "02000000" "00000000" "69887f50");

  std::string empty;
  FrozenTpt().AppendTo(&empty);
  EXPECT_EQ(Hex(empty),
            "46545054" "01000000" "00000000" "00000000" "00000000"
            "00000000" "00000000" "f2fa0f82");
}

}  // namespace
}  // namespace hpm
