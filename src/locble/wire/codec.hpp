#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace locble::wire {

/// Typed decode outcome of every wire-format reader. The contract the
/// corruption tests pin down (docs/WIRE.md): a reader confronted with
/// arbitrary bytes either yields data or one of these statuses — never
/// undefined behavior, never a crash.
enum class WireStatus : std::uint8_t {
    ok,               ///< a record was decoded
    end,              ///< clean end of stream (the `end` frame was reached)
    truncated,        ///< the byte stream stops mid-header or mid-frame
    bad_magic,        ///< the 8-byte file magic does not match
    unknown_version,  ///< header version is newer than this reader speaks
    unknown_frame,    ///< frame type byte outside the known set
    bad_crc,          ///< frame (or header) checksum mismatch
    malformed,        ///< structurally invalid payload (bad varint, bad enum, ...)
    config_mismatch,  ///< checkpoint was taken under a different service config
};

/// Lowercase name of a status ("ok", "bad_crc", ...) for messages/reports.
const char* status_name(WireStatus s);

/// The exception carrying a WireStatus out of the throwing entry points
/// (checkpoint restore, replay drivers). The frame-level readers themselves
/// return statuses instead of throwing.
class WireError : public std::runtime_error {
public:
    WireError(WireStatus code, const std::string& what)
        : std::runtime_error(what), code_(code) {}
    WireStatus code() const { return code_; }

private:
    WireStatus code_;
};

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `n` bytes,
/// continuing from `seed` (pass the previous return value to checksum a
/// logical stream in pieces). Pure function of the bytes — the per-frame
/// integrity check of the wire format. On an x86-64 CPU with PCLMULQDQ and
/// SSE4.1 (checked once per process), an input of 64 bytes or more has its
/// 16-byte-multiple prefix folded by carry-less multiplication and the rest
/// finished by crc32_slice8's loop; elsewhere the whole input takes that
/// loop. The values are those of the classic bytewise loop either way.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// crc32 computed slice-by-8 (eight bytes per table step) on every CPU: the
/// portable path, and the reference the folded path is tested against.
std::uint32_t crc32_slice8(const void* data, std::size_t n, std::uint32_t seed = 0);

/// Longest LEB128 encoding of a u64 (ten 7-bit groups).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Unsigned LEB128 (7 bits per byte, high bit = continue) of `v` into
/// `out`; returns the number of bytes written (1..kMaxVarintBytes).
inline std::size_t encode_varint(std::uint64_t v, char* out) {
    std::size_t n = 0;
    while (v >= 0x80u) {
        out[n++] = static_cast<char>((v & 0x7fu) | 0x80u);
        v >>= 7;
    }
    out[n++] = static_cast<char>(v);
    return n;
}

/// Append-only little-endian byte sink. All multi-byte integers are fixed
/// little-endian; varints are LEB128; doubles travel as their raw IEEE-754
/// bit pattern (round-trip exact, NaN payloads included). Every value goes
/// out in one append.
class ByteWriter {
public:
    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u16(std::uint16_t v) { fixed(v); }
    void u32(std::uint32_t v) { fixed(v); }
    void u64(std::uint64_t v) { fixed(v); }
    /// Unsigned LEB128, as encode_varint writes it.
    void varint(std::uint64_t v) {
        char b[kMaxVarintBytes];
        out_.append(b, encode_varint(v, b));
    }
    /// Zigzag-mapped signed varint.
    void svarint(std::int64_t v) {
        const auto u = static_cast<std::uint64_t>(v);
        varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
    }
    /// Raw IEEE-754 bit pattern, little-endian.
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void bool8(bool v) { u8(v ? 1u : 0u); }
    void bytes(const void* data, std::size_t n) {
        out_.append(static_cast<const char*>(data), n);
    }
    /// Length-prefixed byte string (varint length + raw bytes).
    void str(std::string_view s) {
        varint(s.size());
        bytes(s.data(), s.size());
    }

    const std::string& data() const { return out_; }
    std::string take() { return std::move(out_); }
    std::size_t size() const { return out_.size(); }
    void clear() { out_.clear(); }

private:
    template <class U>
    void fixed(U v) {
        char b[sizeof v];
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(b, &v, sizeof v);
        } else {
            for (std::size_t i = 0; i < sizeof v; ++i)
                b[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
        }
        out_.append(b, sizeof b);
    }

    std::string out_;
};

/// Bounds-checked little-endian reader over a borrowed byte span.
///
/// Reads past the end — or a structurally invalid varint — latch the
/// `failed()` flag and return zero values from then on; callers decode a
/// whole structure and check `ok()` once at the end. Nothing here ever
/// reads out of bounds, whatever the input (the ASan/UBSan property the
/// corruption tests exercise).
class ByteReader {
public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t u8() {
        if (pos_ >= bytes_.size()) return fail_u8();
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }
    // Fixed-width reads load the whole value after one bounds check. Short
    // of that they take the byte-at-a-time path, which consumes what is
    // left, latches failure and keeps the partial value, so a truncated
    // read yields the same value, status and position either way.
    std::uint16_t u16() {
        std::uint16_t v = 0;
        if (load(v)) return v;
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
    }
    std::uint32_t u32() {
        std::uint32_t v = 0;
        if (load(v)) return v;
        const std::uint32_t lo = u16();
        return lo | (static_cast<std::uint32_t>(u16()) << 16);
    }
    std::uint64_t u64() {
        std::uint64_t v = 0;
        if (load(v)) return v;
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
                // Reject non-canonical encodings that would shift bits off
                // the top (a 10th byte may only contribute the final bit).
                if (shift == 63 && b > 1) return fail_u64();
                return v;
            }
        }
        return fail_u64();  // > 10 continuation bytes: not a varint
    }
    std::int64_t svarint() {
        const std::uint64_t u = varint();
        return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
    }
    double f64() { return std::bit_cast<double>(u64()); }
    bool bool8() { return u8() != 0; }
    /// Borrowed view of the next `n` bytes (empty view + failure when short).
    std::string_view bytes(std::size_t n) {
        if (n > bytes_.size() - pos_) {  // pos_ <= size() always holds
            failed_ = true;
            return {};
        }
        const std::string_view v = bytes_.substr(pos_, n);
        pos_ += n;
        return v;
    }
    /// Length-prefixed byte string written by ByteWriter::str.
    std::string_view str() { return bytes(static_cast<std::size_t>(varint())); }

    bool ok() const { return !failed_; }
    bool failed() const { return failed_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool at_end() const { return pos_ >= bytes_.size(); }

private:
    /// Load a whole value when all its bytes are present; false leaves the
    /// read to the byte-at-a-time path (always so on a big-endian host).
    template <class U>
    bool load(U& v) {
        if (std::endian::native != std::endian::little || remaining() < sizeof v)
            return false;
        std::memcpy(&v, bytes_.data() + pos_, sizeof v);
        pos_ += sizeof v;
        return true;
    }

    std::uint8_t fail_u8() {
        failed_ = true;
        return 0;
    }
    std::uint64_t fail_u64() {
        failed_ = true;
        return 0;
    }

    std::string_view bytes_;
    std::size_t pos_{0};
    bool failed_{false};
};

}  // namespace locble::wire
