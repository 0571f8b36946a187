// locble::wire log layer: LogWriter/LogReader round trips (batching, epoch
// marks, sections), header validation, and the corruption-safety contract —
// every single-byte flip and every prefix truncation of a log must surface
// as a typed WireStatus, never a crash or silent misparse (docs/WIRE.md).

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "locble/wire/codec.hpp"
#include "locble/wire/event.hpp"
#include "locble/wire/log.hpp"

namespace wire = locble::wire;

namespace {

wire::EventRecord adv(std::uint64_t client, double t, std::uint64_t beacon,
                      double rssi) {
    wire::EventRecord e;
    e.client = client;
    e.t = t;
    e.kind = wire::kEventKindAdv;
    e.beacon = beacon;
    e.rssi_dbm = rssi;
    return e;
}

wire::EventRecord pose(std::uint64_t client, double t, double x, double y) {
    wire::EventRecord e;
    e.client = client;
    e.t = t;
    e.kind = wire::kEventKindPose;
    e.pos_x = x;
    e.pos_y = y;
    return e;
}

/// A small mixed log: two event batches split by epoch marks, a section.
std::string small_log() {
    wire::LogWriter w;
    w.add_event(adv(1, 0.5, 10, -61.25));
    w.add_event(pose(2, 0.75, 1.5, -2.5));
    w.epoch_mark(1);
    w.add_event(adv(3, 1.5, 11, -70.0));
    w.epoch_mark(2);
    w.section("note", "opaque \x01\xff bytes");
    return w.finish();
}

/// A 16-byte header with caller-chosen version/kind and a *valid* CRC, so
/// tests can probe the post-CRC validation steps in isolation.
std::string header_bytes(std::uint16_t version, std::uint16_t kind) {
    wire::ByteWriter w;
    w.bytes(wire::kMagic, sizeof wire::kMagic);
    w.u16(version);
    w.u16(kind);
    w.u32(wire::crc32(w.data().data(), w.size()));
    return w.take();
}

/// Append one frame with a correct CRC (arbitrary type byte, so tests can
/// craft unknown-frame and malformed-payload cases the writer never emits).
void append_frame(std::string& out, std::uint8_t type,
                  const std::string& payload) {
    wire::ByteWriter w;
    w.u8(type);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.bytes(payload.data(), payload.size());
    std::uint32_t crc = wire::crc32(&type, 1);
    crc = wire::crc32(payload.data(), payload.size(), crc);
    w.u32(crc);
    out += w.data();
}

/// Drain a reader; returns the first non-ok status (end on a clean log).
wire::WireStatus drain(wire::LogReader& r) {
    if (r.header_status() != wire::WireStatus::ok) return r.header_status();
    wire::LogRecord rec;
    for (;;) {
        const wire::WireStatus st = r.next(rec);
        if (st != wire::WireStatus::ok) return st;
    }
}

TEST(WireLogTest, MixedLogRoundTrips) {
    const std::string bytes = small_log();
    wire::LogReader r(bytes);
    ASSERT_EQ(r.header_status(), wire::WireStatus::ok);
    EXPECT_EQ(r.kind(), wire::StreamKind::event_log);
    EXPECT_EQ(r.version(), wire::kVersion);

    wire::LogRecord rec;
    ASSERT_EQ(r.next(rec), wire::WireStatus::ok);
    ASSERT_EQ(rec.type, wire::FrameType::events);
    ASSERT_EQ(rec.events.size(), 2u);
    EXPECT_TRUE(bit_identical(rec.events[0], adv(1, 0.5, 10, -61.25)));
    EXPECT_TRUE(bit_identical(rec.events[1], pose(2, 0.75, 1.5, -2.5)));

    ASSERT_EQ(r.next(rec), wire::WireStatus::ok);
    ASSERT_EQ(rec.type, wire::FrameType::epoch);
    EXPECT_EQ(rec.epoch, 1u);

    ASSERT_EQ(r.next(rec), wire::WireStatus::ok);
    ASSERT_EQ(rec.type, wire::FrameType::events);
    ASSERT_EQ(rec.events.size(), 1u);
    EXPECT_TRUE(bit_identical(rec.events[0], adv(3, 1.5, 11, -70.0)));

    ASSERT_EQ(r.next(rec), wire::WireStatus::ok);
    ASSERT_EQ(rec.type, wire::FrameType::epoch);
    EXPECT_EQ(rec.epoch, 2u);

    ASSERT_EQ(r.next(rec), wire::WireStatus::ok);
    ASSERT_EQ(rec.type, wire::FrameType::section);
    EXPECT_EQ(rec.section_name, "note");
    EXPECT_EQ(rec.section_body, "opaque \x01\xff bytes");

    EXPECT_EQ(r.next(rec), wire::WireStatus::end);
    EXPECT_EQ(rec.type, wire::FrameType::end);
}

TEST(WireLogTest, EmptyLogIsHeaderPlusEndFrame) {
    wire::LogWriter w;
    const std::string bytes = w.finish();
    EXPECT_EQ(bytes.size(), 16u + 9u);  // header + empty end frame
    wire::LogReader r(bytes);
    ASSERT_EQ(r.header_status(), wire::WireStatus::ok);
    wire::LogRecord rec;
    EXPECT_EQ(r.next(rec), wire::WireStatus::end);
}

TEST(WireLogTest, LargeEventCountSplitsIntoBatches) {
    wire::LogWriter w;
    const std::size_t n = 2 * wire::LogWriter::kEventBatchSize + 452;
    for (std::size_t i = 0; i < n; ++i)
        w.add_event(adv(i % 7, 0.01 * static_cast<double>(i), i % 3,
                        -60.0 - static_cast<double>(i % 40)));
    EXPECT_EQ(w.events_written(), n);
    const std::string bytes = w.finish();

    wire::LogReader r(bytes);
    wire::LogRecord rec;
    std::vector<std::size_t> batch_sizes;
    std::size_t total = 0, idx = 0;
    while (r.next(rec) == wire::WireStatus::ok) {
        ASSERT_EQ(rec.type, wire::FrameType::events);
        batch_sizes.push_back(rec.events.size());
        for (const wire::EventRecord& e : rec.events) {
            EXPECT_TRUE(bit_identical(
                e, adv(idx % 7, 0.01 * static_cast<double>(idx), idx % 3,
                       -60.0 - static_cast<double>(idx % 40))))
                << "event " << idx;
            ++idx;
        }
        total += rec.events.size();
    }
    EXPECT_EQ(total, n);
    const std::vector<std::size_t> expected = {
        wire::LogWriter::kEventBatchSize, wire::LogWriter::kEventBatchSize, 452};
    EXPECT_EQ(batch_sizes, expected);
}

TEST(WireLogTest, CountersTrackWrites) {
    wire::LogWriter w;
    w.add_event(adv(1, 0.0, 1, -60.0));
    EXPECT_EQ(w.events_written(), 1u);  // counted immediately, pre-flush
    w.epoch_mark(1);
    w.epoch_mark(2);
    EXPECT_EQ(w.epochs_written(), 2u);
}

TEST(WireLogTest, ShortBufferIsTruncated) {
    const std::string bytes = small_log();
    for (std::size_t n = 0; n < 16; ++n) {
        wire::LogReader r(std::string_view(bytes).substr(0, n));
        EXPECT_EQ(r.header_status(), wire::WireStatus::truncated);
        wire::LogRecord rec;
        EXPECT_EQ(r.next(rec), wire::WireStatus::truncated);  // sticky
    }
}

TEST(WireLogTest, BadMagicIsRejected) {
    std::string bytes = small_log();
    bytes[0] = 'X';
    wire::LogReader r(bytes);
    EXPECT_EQ(r.header_status(), wire::WireStatus::bad_magic);
}

TEST(WireLogTest, HeaderCrcDamageIsRejected) {
    std::string bytes = small_log();
    bytes[13] = static_cast<char>(bytes[13] ^ 0x40);  // inside the header CRC
    wire::LogReader r(bytes);
    EXPECT_EQ(r.header_status(), wire::WireStatus::bad_crc);
}

TEST(WireLogTest, FutureOrZeroVersionIsRejected) {
    // Valid CRC, so the version check itself is what fires.
    for (const std::uint16_t v : {std::uint16_t{0},
                                  static_cast<std::uint16_t>(wire::kVersion + 1),
                                  std::uint16_t{0xffff}}) {
        std::string bytes = header_bytes(
            v, static_cast<std::uint16_t>(wire::StreamKind::event_log));
        append_frame(bytes, static_cast<std::uint8_t>(wire::FrameType::end), "");
        wire::LogReader r(bytes);
        EXPECT_EQ(r.header_status(), wire::WireStatus::unknown_version)
            << "version " << v;
    }
}

TEST(WireLogTest, UnknownStreamKindIsMalformed) {
    const std::string bytes = header_bytes(wire::kVersion, 7);
    wire::LogReader r(bytes);
    EXPECT_EQ(r.header_status(), wire::WireStatus::malformed);
}

TEST(WireLogTest, UnknownFrameTypeIsReported) {
    std::string bytes = header_bytes(
        wire::kVersion, static_cast<std::uint16_t>(wire::StreamKind::event_log));
    append_frame(bytes, 9, "future payload");
    wire::LogReader r(bytes);
    wire::LogRecord rec;
    EXPECT_EQ(r.next(rec), wire::WireStatus::unknown_frame);
    EXPECT_EQ(r.next(rec), wire::WireStatus::unknown_frame);  // sticky
}

TEST(WireLogTest, OversizedLengthIsMalformedNotTrusted) {
    std::string bytes = header_bytes(
        wire::kVersion, static_cast<std::uint16_t>(wire::StreamKind::event_log));
    wire::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(wire::FrameType::events));
    w.u32(wire::kMaxFramePayload + 1);  // claims 64 MiB + 1, delivers nothing
    bytes += w.data();
    wire::LogReader r(bytes);
    wire::LogRecord rec;
    EXPECT_EQ(r.next(rec), wire::WireStatus::malformed);
}

TEST(WireLogTest, WriterRefusesFramesItsReaderWouldReject) {
    // A section payload is a one-byte name length, the name, then the body:
    // with name "s", a body of kMaxFramePayload - 2 bytes fills it exactly.
    const std::string body(wire::kMaxFramePayload - 1, 'x');
    const std::string_view at_limit(body.data(), body.size() - 1);
    wire::LogWriter w(wire::StreamKind::checkpoint);
    w.section("s", at_limit);
    const std::size_t written = w.size();
    try {
        w.section("s", body);  // one byte over
        ADD_FAILURE() << "oversized section was written";
    } catch (const wire::WireError& e) {
        EXPECT_EQ(e.code(), wire::WireStatus::malformed);
    }
    EXPECT_EQ(w.size(), written);  // nothing of the refused frame went out

    const std::string bytes = w.finish();
    wire::LogReader r(bytes);
    wire::LogRecord rec;
    ASSERT_EQ(r.next(rec), wire::WireStatus::ok);
    EXPECT_EQ(rec.section_name, "s");
    EXPECT_EQ(rec.section_body.size(), at_limit.size());
    EXPECT_EQ(r.next(rec), wire::WireStatus::end);
}

TEST(WireLogTest, EventsFrameWithForgedCountIsMalformed) {
    // A count larger than the payload could back a giant allocation loop;
    // the reader must bound it by the payload size instead.
    wire::ByteWriter payload;
    payload.varint(1000);  // claims 1000 events
    {
        wire::ByteWriter one;
        wire::encode_event(one, adv(1, 0.0, 1, -60.0));
        payload.bytes(one.data().data(), one.size());  // delivers 1
    }
    std::string bytes = header_bytes(
        wire::kVersion, static_cast<std::uint16_t>(wire::StreamKind::event_log));
    append_frame(bytes, static_cast<std::uint8_t>(wire::FrameType::events),
                 payload.data());
    wire::LogReader r(bytes);
    wire::LogRecord rec;
    EXPECT_EQ(r.next(rec), wire::WireStatus::malformed);
}

TEST(WireLogTest, EventsFrameWithTrailingBytesIsMalformed) {
    wire::ByteWriter payload;
    payload.varint(1);
    {
        wire::ByteWriter one;
        wire::encode_event(one, adv(1, 0.0, 1, -60.0));
        payload.bytes(one.data().data(), one.size());
    }
    payload.u8(0xee);  // stray byte after the declared events
    std::string bytes = header_bytes(
        wire::kVersion, static_cast<std::uint16_t>(wire::StreamKind::event_log));
    append_frame(bytes, static_cast<std::uint8_t>(wire::FrameType::events),
                 payload.data());
    wire::LogReader r(bytes);
    wire::LogRecord rec;
    EXPECT_EQ(r.next(rec), wire::WireStatus::malformed);
}

TEST(WireLogTest, UnknownEventKindIsMalformed) {
    wire::ByteWriter payload;
    payload.varint(1);
    payload.varint(1);    // client
    payload.f64(0.0);     // t
    payload.u8(7);        // kind: neither adv nor pose
    payload.varint(1);
    payload.f64(-60.0);
    std::string bytes = header_bytes(
        wire::kVersion, static_cast<std::uint16_t>(wire::StreamKind::event_log));
    append_frame(bytes, static_cast<std::uint8_t>(wire::FrameType::events),
                 payload.data());
    wire::LogReader r(bytes);
    wire::LogRecord rec;
    EXPECT_EQ(r.next(rec), wire::WireStatus::malformed);
}

TEST(WireLogTest, NonEmptyEndFrameIsMalformed) {
    std::string bytes = header_bytes(
        wire::kVersion, static_cast<std::uint16_t>(wire::StreamKind::event_log));
    append_frame(bytes, static_cast<std::uint8_t>(wire::FrameType::end), "x");
    wire::LogReader r(bytes);
    wire::LogRecord rec;
    EXPECT_EQ(r.next(rec), wire::WireStatus::malformed);
}

TEST(WireLogTest, MissingEndFrameIsTruncated) {
    std::string bytes = small_log();
    bytes.resize(bytes.size() - 9);  // strip the end frame entirely
    wire::LogReader r(bytes);
    EXPECT_EQ(drain(r), wire::WireStatus::truncated);
}

TEST(WireLogTest, EveryPrefixTruncationIsDetected) {
    const std::string bytes = small_log();
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        wire::LogReader r(std::string_view(bytes).substr(0, n));
        EXPECT_EQ(drain(r), wire::WireStatus::truncated) << "prefix " << n;
    }
}

TEST(WireLogTest, EverySingleByteCorruptionIsDetected) {
    const std::string good = small_log();
    for (std::size_t i = 0; i < good.size(); ++i) {
        for (const int mask : {0x01, 0x80, 0xff}) {
            std::string bad = good;
            bad[i] = static_cast<char>(bad[i] ^ mask);
            wire::LogReader r(bad);
            const wire::WireStatus st = drain(r);
            // Never a clean end: some layer (header CRC, frame CRC, frame
            // structure) must notice. Which one depends on the byte hit.
            EXPECT_NE(st, wire::WireStatus::end)
                << "byte " << i << " mask " << mask;
            EXPECT_NE(st, wire::WireStatus::ok);
        }
    }
}

TEST(WireLogTest, CorruptionStatusesAreSticky) {
    std::string bytes = small_log();
    bytes[20] = static_cast<char>(bytes[20] ^ 0x10);  // inside the first frame
    wire::LogReader r(bytes);
    const wire::WireStatus first = drain(r);
    ASSERT_NE(first, wire::WireStatus::end);
    wire::LogRecord rec;
    EXPECT_EQ(r.next(rec), first);
    EXPECT_EQ(r.next(rec), first);
}

TEST(WireLogTest, EndStatusIsSticky) {
    const std::string bytes = small_log() + "trailing garbage";
    wire::LogReader r(bytes);
    ASSERT_EQ(drain(r), wire::WireStatus::end);
    wire::LogRecord rec;
    // Bytes after a clean end frame are never looked at.
    EXPECT_EQ(r.next(rec), wire::WireStatus::end);
}

TEST(WireLogTest, FileHelpersRoundTrip) {
    const std::string bytes = small_log();
    const std::string path =
        testing::TempDir() + "locble_wire_test_log.bin";
    ASSERT_TRUE(wire::write_file(path, bytes));
    const auto back = wire::read_file(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, bytes);
    std::remove(path.c_str());

    EXPECT_FALSE(
        wire::read_file(testing::TempDir() + "locble_wire_no_such_file.bin")
            .has_value());
}

}  // namespace
