#include "locble/wire/codec.hpp"

#include <array>

// The carry-less-multiply CRC fold is x86-64 code, compiled for its target
// ISA function by function while the file keeps the baseline flags, and run
// only where CPUID reports the instructions (fold_supported below).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LOCBLE_CRC32_FOLD 1
#include <immintrin.h>
#else
#define LOCBLE_CRC32_FOLD 0
#endif

namespace locble::wire {

const char* status_name(WireStatus s) {
    switch (s) {
        case WireStatus::ok: return "ok";
        case WireStatus::end: return "end";
        case WireStatus::truncated: return "truncated";
        case WireStatus::bad_magic: return "bad_magic";
        case WireStatus::unknown_version: return "unknown_version";
        case WireStatus::unknown_frame: return "unknown_frame";
        case WireStatus::bad_crc: return "bad_crc";
        case WireStatus::malformed: return "malformed";
        case WireStatus::config_mismatch: return "config_mismatch";
    }
    return "malformed";
}

namespace {

using Crc32Table = std::array<std::uint32_t, 256>;

/// The reflected CRC-32 tables for slice-by-8, generated at compile time —
/// no runtime initialization order to think about. Table 0 is the classic
/// bytewise table; table k advances a byte's contribution through k more
/// zero bytes, so eight tables fold eight input bytes per step.
constexpr std::array<Crc32Table, 8> make_crc32_tables() {
    std::array<Crc32Table, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr std::array<Crc32Table, 8> kCrc32 = make_crc32_tables();

std::uint32_t load_le32(const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

/// The slice-by-8 loop over the running register `c` (the CRC before its
/// final inversion).
std::uint32_t slice8(std::uint32_t c, const unsigned char* p, std::size_t n) {
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = load_le32(p) ^ c;
        const std::uint32_t hi = load_le32(p + 4);
        c = kCrc32[7][lo & 0xFFu] ^ kCrc32[6][(lo >> 8) & 0xFFu] ^
            kCrc32[5][(lo >> 16) & 0xFFu] ^ kCrc32[4][lo >> 24] ^
            kCrc32[3][hi & 0xFFu] ^ kCrc32[2][(hi >> 8) & 0xFFu] ^
            kCrc32[1][(hi >> 16) & 0xFFu] ^ kCrc32[0][hi >> 24];
    }
    for (; n > 0; --n, ++p) c = kCrc32[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c;
}

#if LOCBLE_CRC32_FOLD

/// Shortest input the fold takes: its four lanes start from 64 bytes.
constexpr std::size_t kFoldMinBytes = 64;

/// One fold step: the 128-bit remainder `x` carried forward by the distance
/// the constant pair `k` encodes (carry-less products of x's low and high
/// 64-bit halves with k's) and added (xor) to the 16 data bytes there.
__attribute__((target("pclmul"))) __m128i fold16(__m128i x, __m128i k, __m128i next) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/// The running register `c` advanced over `n` bytes, `n` a multiple of 16
/// and at least kFoldMinBytes: Intel's "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Gopal et al., 2009) in its
/// bit-reflected form. Four 128-bit lanes fold 64 bytes per step, fold into
/// one, take the remaining 16-byte blocks, and the 128-bit remainder is
/// reduced to 64 bits and then, by a Barrett step, to 32. Each k is
/// x^d mod P(x), bit-reflected and shifted left once: k1, k2 for d = 4 *
/// 128 +- 32, k3, k4 for 128 +- 32, k5 for 64; P' is P(x) reflected and u'
/// the reflected quotient x^64 / P(x). These are the constants of zlib's
/// and Chromium's crc32_simd.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(const unsigned char* p,
                                                                   std::size_t n,
                                                                   std::uint32_t c) {
    const auto load = [](const unsigned char* q) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
    };
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // u', P'
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x2 = load(p + 16), x3 = load(p + 32), x4 = load(p + 48);
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x1 = fold16(x1, k1k2, load(p));
        x2 = fold16(x2, k1k2, load(p + 16));
        x3 = fold16(x3, k1k2, load(p + 32));
        x4 = fold16(x4, k1k2, load(p + 48));
    }
    x1 = fold16(fold16(fold16(x1, k3k4, x2), k3k4, x3), k3k4, x4);
    for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k3k4, load(p));

    // 128 -> 64 bits (k4), then the low 32 of those with k5.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
    // Barrett reduction to 32 bits.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Whether this CPU runs crc32_fold, asked once per process.
bool fold_supported() {
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
    }();
    return supported;
}

#endif  // LOCBLE_CRC32_FOLD

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if LOCBLE_CRC32_FOLD
    if (n >= kFoldMinBytes && fold_supported()) {
        const std::size_t folded = n & ~std::size_t{15};
        c = crc32_fold(p, folded, c);
        p += folded;
        n -= folded;
    }
#endif
    return slice8(c, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_slice8(const void* data, std::size_t n, std::uint32_t seed) {
    return slice8(seed ^ 0xFFFFFFFFu, static_cast<const unsigned char*>(data), n) ^
           0xFFFFFFFFu;
}

}  // namespace locble::wire
