#include "locble/ble/frames.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace locble::ble {
namespace {

TEST(Uuid128Test, StringRoundTrip) {
    const auto u = Uuid128::from_id(42);
    const auto back = Uuid128::from_string(u.str());
    EXPECT_EQ(u, back);
}

TEST(Uuid128Test, CanonicalFormat) {
    const std::string s = Uuid128::from_id(1).str();
    ASSERT_EQ(s.size(), 36u);
    EXPECT_EQ(s[8], '-');
    EXPECT_EQ(s[13], '-');
    EXPECT_EQ(s[18], '-');
    EXPECT_EQ(s[23], '-');
}

TEST(Uuid128Test, BadStringsThrow) {
    EXPECT_THROW(Uuid128::from_string("short"), std::runtime_error);
    EXPECT_THROW(Uuid128::from_string("zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz"),
                 std::runtime_error);
}

TEST(IBeaconTest, EncodeDecodeRoundTrip) {
    IBeaconFrame f;
    f.uuid = Uuid128::from_id(99);
    f.major = 0x1234;
    f.minor = 0xBEEF;
    f.measured_power = -59;
    const auto payload = encode_ibeacon(f);
    const auto back = decode_ibeacon(payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->uuid, f.uuid);
    EXPECT_EQ(back->major, f.major);
    EXPECT_EQ(back->minor, f.minor);
    EXPECT_EQ(back->measured_power, f.measured_power);
}

TEST(IBeaconTest, PayloadFitsLegacyAdvertisement) {
    const auto payload = encode_ibeacon(IBeaconFrame{});
    EXPECT_LE(payload.size(), 31u);
}

TEST(IBeaconTest, OtherFormatsDecodeToNullopt) {
    const auto eddystone = encode_eddystone_uid(EddystoneUidFrame{});
    EXPECT_FALSE(decode_ibeacon(eddystone).has_value());
    const auto alt = encode_altbeacon(AltBeaconFrame{});
    EXPECT_FALSE(decode_ibeacon(alt).has_value());
}

TEST(EddystoneTest, EncodeDecodeRoundTrip) {
    EddystoneUidFrame f;
    f.tx_power = -12;
    for (std::size_t i = 0; i < 10; ++i) f.namespace_id[i] = static_cast<std::uint8_t>(i);
    for (std::size_t i = 0; i < 6; ++i)
        f.instance_id[i] = static_cast<std::uint8_t>(0xA0 + i);
    const auto back = decode_eddystone_uid(encode_eddystone_uid(f));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->tx_power, f.tx_power);
    EXPECT_EQ(back->namespace_id, f.namespace_id);
    EXPECT_EQ(back->instance_id, f.instance_id);
}

TEST(EddystoneTest, RejectsForeignServiceData) {
    EXPECT_FALSE(decode_eddystone_uid(encode_ibeacon(IBeaconFrame{})).has_value());
}

TEST(AltBeaconTest, EncodeDecodeRoundTrip) {
    AltBeaconFrame f;
    f.manufacturer_id = 0x0118;
    for (std::size_t i = 0; i < 20; ++i)
        f.beacon_id[i] = static_cast<std::uint8_t>(i * 3);
    f.reference_rssi = -61;
    f.mfg_reserved = 0x5A;
    const auto back = decode_altbeacon(encode_altbeacon(f));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->manufacturer_id, f.manufacturer_id);
    EXPECT_EQ(back->beacon_id, f.beacon_id);
    EXPECT_EQ(back->reference_rssi, f.reference_rssi);
    EXPECT_EQ(back->mfg_reserved, f.mfg_reserved);
}

TEST(AltBeaconTest, NotConfusedWithIBeacon) {
    EXPECT_FALSE(decode_altbeacon(encode_ibeacon(IBeaconFrame{})).has_value());
}

TEST(MakeBeaconPdu, NonConnectableAllFormats) {
    for (auto fmt : {BeaconFormat::ibeacon, BeaconFormat::eddystone_uid,
                     BeaconFormat::altbeacon}) {
        const AdvertisingPdu pdu = make_beacon_pdu(5, fmt, -59);
        EXPECT_EQ(pdu.type, PduType::adv_nonconn_ind);
        EXPECT_FALSE(is_connectable(pdu.type));
        // Serializes within the legacy limit.
        EXPECT_NO_THROW(pdu.serialize());
    }
}

TEST(MakeBeaconPdu, MeasuredPowerExtractable) {
    for (auto fmt : {BeaconFormat::ibeacon, BeaconFormat::eddystone_uid,
                     BeaconFormat::altbeacon}) {
        const AdvertisingPdu pdu = make_beacon_pdu(5, fmt, -63);
        const auto power = beacon_measured_power(pdu.payload);
        ASSERT_TRUE(power.has_value());
        EXPECT_EQ(*power, -63);
    }
}

TEST(MakeBeaconPdu, DistinctIdsDistinctIdentity) {
    const auto a = make_beacon_pdu(1, BeaconFormat::ibeacon, -59);
    const auto b = make_beacon_pdu(2, BeaconFormat::ibeacon, -59);
    EXPECT_NE(a.address, b.address);
    EXPECT_NE(a.payload, b.payload);
}

TEST(BeaconMeasuredPower, UnknownPayloadIsNullopt) {
    const std::vector<std::uint8_t> flags_only{0x02, 0x01, 0x06};
    EXPECT_FALSE(beacon_measured_power(flags_only).has_value());
}

}  // namespace
}  // namespace locble::ble
