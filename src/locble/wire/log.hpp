#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "locble/wire/codec.hpp"
#include "locble/wire/event.hpp"

namespace locble::wire {

/// 8-byte file magic ("LOCBLEWF": LOCBLE Wire Format).
inline constexpr char kMagic[8] = {'L', 'O', 'C', 'B', 'L', 'E', 'W', 'F'};
/// Format version this build writes and the highest it reads. The policy
/// (docs/WIRE.md) is BenchReport-style: bump on any layout change; readers
/// reject newer versions with `unknown_version` instead of guessing.
inline constexpr std::uint16_t kVersion = 1;

/// What a stream carries; part of the 16-byte file header.
enum class StreamKind : std::uint16_t {
    event_log = 1,   ///< event batches + epoch marks (record/replay)
    checkpoint = 2,  ///< named checkpoint sections (service state)
};

/// Frame types of version 1. A reader encountering anything else reports
/// `unknown_frame` — future minor additions are detectable, never UB.
enum class FrameType : std::uint8_t {
    events = 1,   ///< varint count + that many EventRecords
    epoch = 2,    ///< varint epoch index: "run an epoch here" in replay
    section = 3,  ///< length-prefixed name + opaque body (checkpoints)
    end = 4,      ///< clean end of stream; absence at EOF means truncation
};

/// Upper bound on a single frame payload (64 MiB). A length field beyond it
/// is treated as `malformed` rather than trusted — a corrupted length must
/// never drive allocation or a giant skip — and LogWriter refuses to write
/// such a frame, so every frame it writes reads back.
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/// One decoded frame. `events` is filled for events frames; `epoch` for
/// epoch marks; the section views borrow from the reader's underlying
/// buffer and stay valid only until the next `next()` call.
struct LogRecord {
    FrameType type{FrameType::end};
    std::vector<EventRecord> events;
    std::uint64_t epoch{0};
    std::string_view section_name;
    std::string_view section_body;
};

/// Streaming writer of the wire format: header, then frames, each
/// CRC32-protected. Events buffer into batches (flushed at every epoch
/// mark, section, `kEventBatchSize`, or finish()); the epoch marks record
/// where TrackingService::begin_epoch() fell relative to the event stream,
/// which is exactly what the replay driver re-enacts.
class LogWriter {
public:
    static constexpr std::size_t kEventBatchSize = 1024;

    explicit LogWriter(StreamKind kind = StreamKind::event_log);

    void add_event(const EventRecord& e);
    void epoch_mark(std::uint64_t epoch);
    /// Append a named section. Throws WireError (malformed), writing
    /// nothing of the frame, when its payload — name plus body — would
    /// exceed kMaxFramePayload, the most LogReader accepts.
    void section(std::string_view name, std::string_view body);

    /// Flush pending events, append the end frame, and hand over the bytes.
    /// The writer is spent afterwards.
    std::string finish();

    std::uint64_t events_written() const { return events_written_; }
    std::uint64_t epochs_written() const { return epochs_written_; }
    /// Bytes emitted so far (excluding the buffered, unflushed batch).
    std::size_t size() const { return out_.size(); }

private:
    void flush_events();
    /// One frame whose payload is the concatenation of `payload`, written
    /// straight into the output and checksummed piece by piece.
    void frame(FrameType type, std::initializer_list<std::string_view> payload);

    ByteWriter out_;
    ByteWriter batch_;
    std::size_t batch_count_{0};
    std::uint64_t events_written_{0};
    std::uint64_t epochs_written_{0};
};

/// Streaming reader over a borrowed byte buffer.
///
/// Construction validates the 16-byte header; `header_status()` reports
/// bad_magic / unknown_version / bad_crc / truncated without throwing.
/// `next()` then yields one frame per call until it returns `end` (the
/// clean end frame) or a corruption status: `truncated` when the bytes
/// stop mid-frame (the torn-tail case), `bad_crc` on checksum mismatch,
/// `unknown_frame` / `malformed` on structural damage. Every status is
/// sticky — after the first non-ok result, further next() calls return
/// the same status.
class LogReader {
public:
    explicit LogReader(std::string_view bytes);

    WireStatus header_status() const { return header_status_; }
    StreamKind kind() const { return kind_; }
    std::uint16_t version() const { return version_; }

    WireStatus next(LogRecord& rec);

private:
    WireStatus finish(WireStatus s) {
        done_ = s;
        return s;
    }

    std::string_view bytes_;
    std::size_t pos_{0};
    WireStatus header_status_{WireStatus::ok};
    StreamKind kind_{StreamKind::event_log};
    std::uint16_t version_{0};
    std::optional<WireStatus> done_;
};

/// Encode one event into `w` / decode one from `r` (layout in docs/WIRE.md:
/// varint client, f64 t, u8 kind, then the kind-selected fields). decode
/// returns false — without touching `out` beyond partial fields — when the
/// bytes are exhausted or the kind byte is unknown.
void encode_event(ByteWriter& w, const EventRecord& e);
bool decode_event(ByteReader& r, EventRecord& out);

/// Whole-file helpers (binary). read_file returns nullopt when the file
/// cannot be opened or read; write_file returns false on any IO failure.
bool write_file(const std::string& path, std::string_view bytes);
std::optional<std::string> read_file(const std::string& path);

}  // namespace locble::wire
