#include "locble/wire/codec.hpp"

#include <array>

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

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = load_le32(p) ^ c;
        const std::uint32_t hi = load_le32(p + 4);
        c = kCrc32[7][lo & 0xFFu] ^ kCrc32[6][(lo >> 8) & 0xFFu] ^
            kCrc32[5][(lo >> 16) & 0xFFu] ^ kCrc32[4][lo >> 24] ^
            kCrc32[3][hi & 0xFFu] ^ kCrc32[2][(hi >> 8) & 0xFFu] ^
            kCrc32[1][(hi >> 16) & 0xFFu] ^ kCrc32[0][hi >> 24];
    }
    for (; n > 0; --n, ++p) c = kCrc32[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

}  // namespace locble::wire
