// locble::wire codec primitives: CRC-32 vectors, ByteWriter/ByteReader
// round-trips (property-tested over seeded random values), varint edge
// cases, and the fail-latch behavior that keeps corrupted input from ever
// turning into UB (docs/WIRE.md). Both CRC paths (crc32, which folds by
// carry-less multiplication where the CPU can, and crc32_slice8) and the
// whole-value reader and writer are checked against the plain bitwise /
// byte-at-a-time references below.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "locble/common/rng.hpp"
#include "locble/wire/codec.hpp"

namespace wire = locble::wire;

namespace {

/// Bitwise CRC-32 (reflected 0xEDB88320), no tables: the definition the
/// production slice-by-8 must reproduce.
std::uint32_t crc32_bitwise(const void* data, std::size_t n, std::uint32_t seed = 0) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    return c ^ 0xFFFFFFFFu;
}

/// `n` seeded pseudo-random bytes, eight per SplitMix64 draw.
std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<unsigned char> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<unsigned char>(locble::Rng::split_seed(seed, i / 8) >>
                                            (8 * (i % 8)));
    return out;
}

using Crc32Fn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

/// `crc` against crc32_bitwise on every length 0..1100 at offsets 0..15,
/// one-shot and chained from a seed. The lengths cross the fold's 64-byte
/// threshold, every 16-byte tail and several 64-byte lane steps. The
/// references grow one byte at a time, which the bitwise loop's chaining
/// makes exact by construction.
void expect_bitwise_at_every_length_and_offset(Crc32Fn crc) {
    constexpr std::size_t kMaxLen = 1100;
    const std::vector<unsigned char> buf = random_bytes(kMaxLen + 16, 20261017);
    for (std::size_t offset = 0; offset < 16; ++offset) {
        const unsigned char* p = buf.data() + offset;
        const std::uint32_t seed = crc32_bitwise(buf.data(), offset + 5);
        std::uint32_t one_shot = 0, chained = seed;
        for (std::size_t n = 0; n <= kMaxLen; ++n) {
            ASSERT_EQ(crc(p, n, 0), one_shot) << "offset " << offset << " length " << n;
            ASSERT_EQ(crc(p, n, seed), chained)
                << "offset " << offset << " length " << n << " chained";
            one_shot = crc32_bitwise(p + n, 1, one_shot);
            chained = crc32_bitwise(p + n, 1, chained);
        }
    }
}

/// The byte-at-a-time reader: every fixed-width value is composed from
/// u8() reads, so a short read consumes what is left, latches failure and
/// keeps the partial value. ByteReader must agree on every value, ok() and
/// pos(), truncated or not.
class ByteAtATimeReader {
public:
    explicit ByteAtATimeReader(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t u8() {
        if (pos_ >= bytes_.size()) {
            failed_ = true;
            return 0;
        }
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }
    std::uint16_t u16() {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
    }
    std::uint32_t u32() {
        const std::uint32_t lo = u16();
        return lo | (static_cast<std::uint32_t>(u16()) << 16);
    }
    std::uint64_t u64() {
        const std::uint64_t lo = u32();
        return lo | (static_cast<std::uint64_t>(u32()) << 32);
    }
    std::uint64_t varint() {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const std::uint8_t b = u8();
            if (failed_) return 0;
            v |= static_cast<std::uint64_t>(b & 0x7fu) << shift;
            if ((b & 0x80u) == 0) {
                if (shift == 63 && b > 1) break;
                return v;
            }
        }
        failed_ = true;
        return 0;
    }
    std::int64_t svarint() {
        const std::uint64_t u = varint();
        return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
    }
    double f64() { return std::bit_cast<double>(u64()); }

    bool ok() const { return !failed_; }
    std::size_t pos() const { return pos_; }

private:
    std::string_view bytes_;
    std::size_t pos_{0};
    bool failed_{false};
};

enum class Op { u8, u16, u32, u64, f64, varint, svarint };
constexpr int kOps = 7;

/// Byte-at-a-time encodings, the reference for ByteWriter's whole-value
/// appends: fixed widths least significant byte first, varints LEB128.
void append_le(std::string& out, std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}
void append_leb128(std::string& out, std::uint64_t v) {
    for (; v >= 0x80u; v >>= 7) out.push_back(static_cast<char>((v & 0x7fu) | 0x80u));
    out.push_back(static_cast<char>(v));
}

/// Read `op` from `r` as raw bits, so values of every type compare with ==.
template <class Reader>
std::uint64_t read_bits(Reader& r, Op op) {
    switch (op) {
        case Op::u8: return r.u8();
        case Op::u16: return r.u16();
        case Op::u32: return r.u32();
        case Op::u64: return r.u64();
        case Op::f64: return std::bit_cast<std::uint64_t>(r.f64());
        case Op::varint: return r.varint();
        case Op::svarint: return static_cast<std::uint64_t>(r.svarint());
    }
    return 0;
}

}  // namespace

TEST(WireCrc32Test, MatchesThePublishedCheckVector) {
    // The canonical IEEE 802.3 check value: CRC32("123456789").
    EXPECT_EQ(wire::crc32("123456789", 9), 0xCBF43926u);
}

TEST(WireCrc32Test, EmptyInputIsZero) {
    EXPECT_EQ(wire::crc32("", 0), 0u);
}

TEST(WireCrc32Test, SeedChainingEqualsOneShot) {
    // The 1 KB input's splits put either piece below, at and above the
    // 64-byte fold threshold, with every 16-byte tail.
    const std::string fox = "the quick brown fox jumps over the lazy dog";
    const std::vector<unsigned char> kilobyte = random_bytes(1024, 7);
    for (const std::string_view data :
         {std::string_view(fox),
          std::string_view(reinterpret_cast<const char*>(kilobyte.data()), kilobyte.size())}) {
        const std::uint32_t one_shot = wire::crc32(data.data(), data.size());
        ASSERT_EQ(one_shot, crc32_bitwise(data.data(), data.size()));
        for (std::size_t split = 0; split <= data.size(); ++split) {
            const std::uint32_t head = wire::crc32(data.data(), split);
            const std::uint32_t chained =
                wire::crc32(data.data() + split, data.size() - split, head);
            ASSERT_EQ(chained, one_shot) << data.size() << " bytes split at " << split;
        }
    }
}

TEST(WireCrc32Test, SliceBy8EqualsBitwiseAtEveryLengthAndAlignment) {
    expect_bitwise_at_every_length_and_offset(wire::crc32_slice8);
}

TEST(WireCrc32Test, FoldEqualsBitwiseAtEveryLengthAndAlignment) {
    expect_bitwise_at_every_length_and_offset(wire::crc32);
}

TEST(WireCrc32Test, FoldEqualsSliceBy8OnEightMegabytes) {
    // Many 64-byte lane steps: a late standby checkpoint is ~6.5 MB.
    constexpr std::size_t kBytes = std::size_t{8} << 20;
    const std::vector<unsigned char> data = random_bytes(kBytes + 16, 11);
    EXPECT_EQ(wire::crc32(data.data(), kBytes), wire::crc32_slice8(data.data(), kBytes));
    // Unaligned start, a 13-byte tail and a seed.
    EXPECT_EQ(wire::crc32(data.data() + 3, kBytes + 13, 0xDEADBEEFu),
              wire::crc32_slice8(data.data() + 3, kBytes + 13, 0xDEADBEEFu));
}

TEST(WireCrc32Test, DetectsEverySingleBitFlip) {
    // The 1 KB input takes the fold: a flip anywhere in the folded prefix
    // or the slice-by-8 tail must change the value.
    const std::string text = "locble wire format";
    const std::vector<unsigned char> kilobyte = random_bytes(1024 + 9, 13);
    for (std::vector<unsigned char> data :
         {std::vector<unsigned char>(text.begin(), text.end()), kilobyte}) {
        const std::uint32_t good = wire::crc32(data.data(), data.size());
        for (std::size_t i = 0; i < data.size(); ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                data[i] = static_cast<unsigned char>(data[i] ^ (1u << bit));
                ASSERT_NE(wire::crc32(data.data(), data.size()), good)
                    << data.size() << " bytes, byte " << i << " bit " << bit;
                data[i] = static_cast<unsigned char>(data[i] ^ (1u << bit));
            }
        }
    }
}

TEST(WireByteCodecTest, FixedWidthRoundTrip) {
    wire::ByteWriter w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.bool8(true);
    w.bool8(false);
    wire::ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.bool8());
    EXPECT_FALSE(r.bool8());
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
}

TEST(WireByteCodecTest, IntegersAreLittleEndianOnTheWire) {
    wire::ByteWriter w;
    w.u32(0x01020304u);
    const std::string& b = w.data();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x04);
    EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x03);
    EXPECT_EQ(static_cast<unsigned char>(b[2]), 0x02);
    EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x01);
}

TEST(WireByteCodecTest, VarintEdgeValues) {
    const std::uint64_t cases[] = {0,
                                   1,
                                   0x7f,
                                   0x80,
                                   0x3fff,
                                   0x4000,
                                   (1ull << 32) - 1,
                                   1ull << 32,
                                   (1ull << 63),
                                   std::numeric_limits<std::uint64_t>::max()};
    for (const std::uint64_t v : cases) {
        wire::ByteWriter w;
        w.varint(v);
        EXPECT_LE(w.size(), 10u);
        wire::ByteReader r(w.data());
        EXPECT_EQ(r.varint(), v);
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.at_end());
    }
}

TEST(WireByteCodecTest, SvarintRoundTripsExtremes) {
    const std::int64_t cases[] = {0,
                                  -1,
                                  1,
                                  -64,
                                  64,
                                  std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max()};
    for (const std::int64_t v : cases) {
        wire::ByteWriter w;
        w.svarint(v);
        wire::ByteReader r(w.data());
        EXPECT_EQ(r.svarint(), v);
        EXPECT_TRUE(r.ok());
    }
}

TEST(WireByteCodecTest, NonCanonicalTenByteVarintIsRejected) {
    // Ten continuation bytes with a final byte > 1 would shift set bits off
    // the top of the u64 — a reader must reject, not silently wrap.
    std::string bad(9, static_cast<char>(0xff));
    bad.push_back(0x02);
    wire::ByteReader r(bad);
    r.varint();
    EXPECT_TRUE(r.failed());

    std::string overlong(10, static_cast<char>(0xff));
    overlong.push_back(0x01);
    wire::ByteReader r2(overlong);
    r2.varint();
    EXPECT_TRUE(r2.failed());
}

TEST(WireByteCodecTest, F64RoundTripIsBitExact) {
    const double cases[] = {0.0,
                            -0.0,
                            1.5,
                            -1234.5678,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max()};
    for (const double v : cases) {
        wire::ByteWriter w;
        w.f64(v);
        wire::ByteReader r(w.data());
        const double back = r.f64();
        std::uint64_t a = 0, b = 0;
        std::memcpy(&a, &v, 8);
        std::memcpy(&b, &back, 8);
        EXPECT_EQ(a, b);  // bit pattern, so -0.0 and NaN payloads survive
    }
}

TEST(WireByteCodecTest, StringsRoundTripWithEmbeddedNuls) {
    wire::ByteWriter w;
    const std::string s("a\0b\xff", 4);
    w.str(s);
    w.str("");
    wire::ByteReader r(w.data());
    EXPECT_EQ(r.str(), s);
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.ok());
}

TEST(WireByteCodecTest, RandomSequenceRoundTripProperty) {
    for (int trial = 0; trial < 50; ++trial) {
        locble::Rng trial_rng = locble::Rng::for_stream(
            20240810ull, static_cast<std::uint64_t>(trial));
        std::vector<std::uint64_t> u64s;
        std::vector<std::int64_t> i64s;
        std::vector<double> f64s;
        wire::ByteWriter w;
        const int n = static_cast<int>(trial_rng.uniform_int(1, 64));
        for (int i = 0; i < n; ++i) {
            const auto u = static_cast<std::uint64_t>(
                trial_rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()));
            const std::int64_t s = trial_rng.uniform_int(
                std::numeric_limits<std::int64_t>::min() / 2,
                std::numeric_limits<std::int64_t>::max() / 2);
            const double f = trial_rng.gaussian(0.0, 1e6);
            u64s.push_back(u);
            i64s.push_back(s);
            f64s.push_back(f);
            w.varint(u);
            w.svarint(s);
            w.f64(f);
        }
        wire::ByteReader r(w.data());
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(r.varint(), u64s[static_cast<std::size_t>(i)]);
            EXPECT_EQ(r.svarint(), i64s[static_cast<std::size_t>(i)]);
            EXPECT_EQ(r.f64(), f64s[static_cast<std::size_t>(i)]);
        }
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.at_end());
    }
}

TEST(WireByteCodecTest, WholeValueCodecEqualsByteAtATimeOnEveryTruncation) {
    for (int trial = 0; trial < 20; ++trial) {
        locble::Rng rng = locble::Rng::for_stream(20261017ull,
                                                  static_cast<std::uint64_t>(trial));
        std::vector<Op> ops;
        wire::ByteWriter w;
        std::string reference;
        const int n = static_cast<int>(rng.uniform_int(1, 24));
        for (int i = 0; i < n; ++i) {
            const auto op = static_cast<Op>(rng.uniform_int(0, kOps - 1));
            // A random value of a random bit width, so varints of every
            // length (1..10 bytes) occur.
            const auto high = static_cast<std::uint64_t>(
                rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()));
            const std::uint64_t raw =
                (high << 1) | static_cast<std::uint64_t>(rng.uniform_int(0, 1));
            const auto bits = static_cast<unsigned>(rng.uniform_int(0, 64));
            const std::uint64_t fit = bits == 0 ? 0 : raw >> (64 - bits);
            ops.push_back(op);
            switch (op) {
                case Op::u8:
                    w.u8(static_cast<std::uint8_t>(fit));
                    append_le(reference, fit, 1);
                    break;
                case Op::u16:
                    w.u16(static_cast<std::uint16_t>(fit));
                    append_le(reference, fit, 2);
                    break;
                case Op::u32:
                    w.u32(static_cast<std::uint32_t>(fit));
                    append_le(reference, fit, 4);
                    break;
                case Op::u64:
                    w.u64(fit);
                    append_le(reference, fit, 8);
                    break;
                case Op::f64:
                    w.f64(std::bit_cast<double>(fit));
                    append_le(reference, fit, 8);
                    break;
                case Op::varint:
                    w.varint(fit);
                    append_leb128(reference, fit);
                    break;
                case Op::svarint: {
                    const auto sv = static_cast<std::int64_t>(fit);
                    w.svarint(sv);
                    append_leb128(reference,
                                  (fit << 1) ^ static_cast<std::uint64_t>(sv >> 63));
                    break;
                }
            }
        }
        ASSERT_EQ(w.data(), reference) << "trial " << trial;

        // Every prefix, the whole stream included: same values, status and
        // position after every read, through and past the truncation.
        for (std::size_t len = 0; len <= reference.size(); ++len) {
            const std::string_view prefix(reference.data(), len);
            wire::ByteReader fast(prefix);
            ByteAtATimeReader slow(prefix);
            for (std::size_t i = 0; i < ops.size(); ++i) {
                ASSERT_EQ(read_bits(fast, ops[i]), read_bits(slow, ops[i]))
                    << "trial " << trial << " prefix " << len << " read " << i;
                ASSERT_EQ(fast.ok(), slow.ok()) << "prefix " << len << " read " << i;
                ASSERT_EQ(fast.pos(), slow.pos()) << "prefix " << len << " read " << i;
            }
            EXPECT_EQ(fast.ok(), len == reference.size());
        }
    }
}

TEST(WireByteCodecTest, ReaderLatchesFailureAndReturnsZeros) {
    wire::ByteWriter w;
    w.u16(0x1234);
    wire::ByteReader r(w.data());
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0u);  // past the end
    EXPECT_TRUE(r.failed());
    // Latched: everything after the first failure is zero, including reads
    // that would otherwise fit.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.varint(), 0u);
    EXPECT_EQ(r.f64(), 0.0);
    EXPECT_EQ(r.bytes(1), "");
}

TEST(WireByteCodecTest, OversizedByteViewFailsWithoutReading) {
    wire::ByteReader r("abc");
    EXPECT_EQ(r.bytes(4), "");
    EXPECT_TRUE(r.failed());
}

TEST(WireStatusTest, EveryStatusHasAName) {
    const wire::WireStatus all[] = {
        wire::WireStatus::ok,           wire::WireStatus::end,
        wire::WireStatus::truncated,    wire::WireStatus::bad_magic,
        wire::WireStatus::unknown_version, wire::WireStatus::unknown_frame,
        wire::WireStatus::bad_crc,      wire::WireStatus::malformed,
        wire::WireStatus::config_mismatch};
    for (const wire::WireStatus s : all) {
        EXPECT_NE(wire::status_name(s), nullptr);
        EXPECT_GT(std::strlen(wire::status_name(s)), 0u);
    }
}

TEST(WireStatusTest, WireErrorCarriesItsCode) {
    const wire::WireError err(wire::WireStatus::bad_crc, "boom");
    EXPECT_EQ(err.code(), wire::WireStatus::bad_crc);
    EXPECT_STREQ(err.what(), "boom");
}
