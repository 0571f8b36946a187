#include "locble/wire/log.hpp"

#include <cstdio>
#include <cstring>
#include <string>

namespace locble::wire {

// --- event codec -----------------------------------------------------------

void encode_event(ByteWriter& w, const EventRecord& e) {
    w.varint(e.client);
    w.f64(e.t);
    w.u8(e.kind);
    if (e.kind == kEventKindPose) {
        w.f64(e.pos_x);
        w.f64(e.pos_y);
    } else {
        w.varint(e.beacon);
        w.f64(e.rssi_dbm);
    }
}

bool decode_event(ByteReader& r, EventRecord& out) {
    out = EventRecord{};
    out.client = r.varint();
    out.t = r.f64();
    out.kind = r.u8();
    if (r.failed()) return false;
    if (out.kind == kEventKindPose) {
        out.pos_x = r.f64();
        out.pos_y = r.f64();
    } else if (out.kind == kEventKindAdv) {
        out.beacon = r.varint();
        out.rssi_dbm = r.f64();
    } else {
        return false;  // unknown kind: malformed, not a guess
    }
    return r.ok();
}

// --- writer ------------------------------------------------------------------

LogWriter::LogWriter(StreamKind kind) {
    out_.bytes(kMagic, sizeof kMagic);
    out_.u16(kVersion);
    out_.u16(static_cast<std::uint16_t>(kind));
    out_.u32(crc32(out_.data().data(), out_.size()));
}

void LogWriter::frame(FrameType type, std::initializer_list<std::string_view> payload) {
    std::size_t len = 0;
    for (const std::string_view piece : payload) len += piece.size();
    // Refuse what LogReader::next would refuse: a frame is only ever
    // written if it can be read back.
    if (len > kMaxFramePayload)
        throw WireError(WireStatus::malformed,
                        "LogWriter: frame payload of " + std::to_string(len) +
                            " bytes exceeds kMaxFramePayload");
    const auto t = static_cast<std::uint8_t>(type);
    out_.u8(t);
    out_.u32(static_cast<std::uint32_t>(len));
    // The CRC covers the type byte and the payload (not the length field:
    // a damaged length already fails structurally as truncated/malformed).
    std::uint32_t crc = crc32(&t, 1);
    for (const std::string_view piece : payload) {
        out_.bytes(piece.data(), piece.size());
        crc = crc32(piece.data(), piece.size(), crc);
    }
    out_.u32(crc);
}

namespace {

/// A varint's encoding as a payload piece, in caller-provided storage.
std::string_view varint_piece(std::uint64_t v, char (&buf)[kMaxVarintBytes]) {
    return {buf, encode_varint(v, buf)};
}

}  // namespace

void LogWriter::flush_events() {
    if (batch_count_ == 0) return;
    char count[kMaxVarintBytes];
    frame(FrameType::events, {varint_piece(batch_count_, count), batch_.data()});
    batch_.clear();
    batch_count_ = 0;
}

void LogWriter::add_event(const EventRecord& e) {
    encode_event(batch_, e);
    ++batch_count_;
    ++events_written_;
    if (batch_count_ >= kEventBatchSize) flush_events();
}

void LogWriter::epoch_mark(std::uint64_t epoch) {
    flush_events();
    char index[kMaxVarintBytes];
    frame(FrameType::epoch, {varint_piece(epoch, index)});
    ++epochs_written_;
}

void LogWriter::section(std::string_view name, std::string_view body) {
    flush_events();
    char name_len[kMaxVarintBytes];
    frame(FrameType::section, {varint_piece(name.size(), name_len), name, body});
}

std::string LogWriter::finish() {
    flush_events();
    frame(FrameType::end, {});
    return out_.take();
}

// --- reader ------------------------------------------------------------------

LogReader::LogReader(std::string_view bytes) : bytes_(bytes) {
    if (bytes_.size() < 16) {
        header_status_ = WireStatus::truncated;
        return;
    }
    if (std::memcmp(bytes_.data(), kMagic, sizeof kMagic) != 0) {
        header_status_ = WireStatus::bad_magic;
        return;
    }
    ByteReader r(bytes_.substr(sizeof kMagic, 8));
    version_ = r.u16();
    const std::uint16_t kind = r.u16();
    const std::uint32_t stored_crc = r.u32();
    if (crc32(bytes_.data(), 12) != stored_crc) {
        header_status_ = WireStatus::bad_crc;
        return;
    }
    if (version_ == 0 || version_ > kVersion) {
        header_status_ = WireStatus::unknown_version;
        return;
    }
    if (kind != static_cast<std::uint16_t>(StreamKind::event_log) &&
        kind != static_cast<std::uint16_t>(StreamKind::checkpoint)) {
        header_status_ = WireStatus::malformed;
        return;
    }
    kind_ = static_cast<StreamKind>(kind);
    pos_ = 16;
}

WireStatus LogReader::next(LogRecord& rec) {
    if (header_status_ != WireStatus::ok) return header_status_;
    if (done_) return *done_;

    // Frame header: type (1) + payload length (4).
    if (bytes_.size() - pos_ < 5) return finish(WireStatus::truncated);
    const auto type = static_cast<std::uint8_t>(bytes_[pos_]);
    ByteReader len_r(bytes_.substr(pos_ + 1, 4));
    const std::uint32_t len = len_r.u32();
    if (len > kMaxFramePayload) return finish(WireStatus::malformed);
    if (bytes_.size() - pos_ - 5 < static_cast<std::size_t>(len) + 4)
        return finish(WireStatus::truncated);
    const std::string_view payload = bytes_.substr(pos_ + 5, len);
    ByteReader crc_r(bytes_.substr(pos_ + 5 + len, 4));
    const std::uint32_t stored_crc = crc_r.u32();
    std::uint32_t crc = crc32(&type, 1);
    crc = crc32(payload.data(), payload.size(), crc);
    if (crc != stored_crc) return finish(WireStatus::bad_crc);
    pos_ += 5 + static_cast<std::size_t>(len) + 4;

    rec = LogRecord{};
    ByteReader r(payload);
    switch (type) {
        case static_cast<std::uint8_t>(FrameType::events): {
            rec.type = FrameType::events;
            const std::uint64_t count = r.varint();
            if (r.failed() || count > len)  // each event is > 1 byte
                return finish(WireStatus::malformed);
            rec.events.resize(static_cast<std::size_t>(count));
            for (auto& e : rec.events)
                if (!decode_event(r, e)) return finish(WireStatus::malformed);
            if (!r.at_end()) return finish(WireStatus::malformed);
            return WireStatus::ok;
        }
        case static_cast<std::uint8_t>(FrameType::epoch): {
            rec.type = FrameType::epoch;
            rec.epoch = r.varint();
            if (r.failed() || !r.at_end()) return finish(WireStatus::malformed);
            return WireStatus::ok;
        }
        case static_cast<std::uint8_t>(FrameType::section): {
            rec.type = FrameType::section;
            rec.section_name = r.str();
            if (r.failed()) return finish(WireStatus::malformed);
            rec.section_body = payload.substr(r.pos());
            return WireStatus::ok;
        }
        case static_cast<std::uint8_t>(FrameType::end): {
            if (len != 0) return finish(WireStatus::malformed);
            rec.type = FrameType::end;
            return finish(WireStatus::end);
        }
        default:
            return finish(WireStatus::unknown_frame);
    }
}

// --- file helpers ------------------------------------------------------------

bool write_file(const std::string& path, std::string_view bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::size_t written = 0;
    if (!bytes.empty()) written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool closed = std::fclose(f) == 0;
    return written == bytes.size() && closed;
}

std::optional<std::string> read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return std::nullopt;
    std::string out;
    char buf[65536];
    for (;;) {
        const std::size_t n = std::fread(buf, 1, sizeof buf, f);
        out.append(buf, n);
        if (n < sizeof buf) break;
    }
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) return std::nullopt;
    return out;
}

}  // namespace locble::wire
