#include "cellfi/tvws/database.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "cellfi/tvws/paws.h"

namespace cellfi::tvws {
namespace {

const GeoLocation kHere{.latitude = 47.64, .longitude = -122.13};
const GeoLocation kFarAway{.latitude = 48.64, .longitude = -120.13};

TEST(TvChannelTest, UsCentreFrequencies) {
  TvChannel ch14{.number = 14, .regulatory = Regulatory::kUs};
  TvChannel ch21{.number = 21, .regulatory = Regulatory::kUs};
  EXPECT_DOUBLE_EQ(ch14.CentreFrequencyHz(), 473e6);
  EXPECT_DOUBLE_EQ(ch21.CentreFrequencyHz(), 515e6);
  EXPECT_DOUBLE_EQ(ch14.LowEdgeHz(), 470e6);
  EXPECT_DOUBLE_EQ(ch14.HighEdgeHz(), 476e6);
}

TEST(TvChannelTest, EuCentreFrequencies) {
  TvChannel ch21{.number = 21, .regulatory = Regulatory::kEu};
  EXPECT_DOUBLE_EQ(ch21.CentreFrequencyHz(), 474e6);
  EXPECT_DOUBLE_EQ(TvChannelWidthHz(Regulatory::kEu), 8e6);
}

TEST(GeoTest, DistanceSanity) {
  EXPECT_NEAR(GeoDistanceM(kHere, kHere), 0.0, 1e-6);
  // One degree of latitude ~ 111 km.
  GeoLocation north = kHere;
  north.latitude += 1.0;
  EXPECT_NEAR(GeoDistanceM(kHere, north), 111'000.0, 500.0);
}

TEST(DatabaseTest, AllChannelsAvailableWithNoIncumbents) {
  SpectrumDatabase db;
  const auto channels = db.Query(kHere, 0);
  EXPECT_EQ(channels.size(), 38u);  // channels 14..51
  for (const auto& a : channels) {
    EXPECT_DOUBLE_EQ(a.max_eirp_dbm, 36.0);
    EXPECT_GT(a.lease_expiry, a.lease_start);
  }
}

TEST(DatabaseTest, ClientQueryUsesLowerPowerCap) {
  SpectrumDatabase db;
  const auto channels = db.Query(kHere, 0, /*master=*/false);
  ASSERT_FALSE(channels.empty());
  EXPECT_DOUBLE_EQ(channels.front().max_eirp_dbm, 20.0);
}

TEST(DatabaseTest, IncumbentBlocksChannelInsideContour) {
  SpectrumDatabase db;
  ASSERT_TRUE(db.AddIncumbent({.id = "mic-1", .channel = 21, .location = kHere,
                               .protection_radius_m = 5000.0}));
  EXPECT_FALSE(db.IsAvailable(21, kHere, 0));
  EXPECT_TRUE(db.IsAvailable(22, kHere, 0));
  EXPECT_TRUE(db.IsAvailable(21, kFarAway, 0));
}

TEST(DatabaseTest, DuplicateIncumbentIdRejected) {
  SpectrumDatabase db;
  EXPECT_TRUE(db.AddIncumbent({.id = "x", .channel = 20, .location = kHere}));
  EXPECT_FALSE(db.AddIncumbent({.id = "x", .channel = 25, .location = kHere}));
  EXPECT_EQ(db.incumbent_count(), 1u);
}

TEST(DatabaseTest, RemoveIncumbentRestoresChannel) {
  SpectrumDatabase db;
  db.AddIncumbent({.id = "mic", .channel = 30, .location = kHere});
  EXPECT_FALSE(db.IsAvailable(30, kHere, 0));
  EXPECT_TRUE(db.RemoveIncumbent("mic"));
  EXPECT_TRUE(db.IsAvailable(30, kHere, 0));
  EXPECT_FALSE(db.RemoveIncumbent("mic"));
}

TEST(DatabaseTest, TimeWindowedIncumbent) {
  SpectrumDatabase db;
  db.AddIncumbent({.id = "event-mic", .channel = 25, .location = kHere,
                   .protection_radius_m = 5000.0, .start = 100 * kSecond,
                   .stop = 200 * kSecond});
  EXPECT_TRUE(db.IsAvailable(25, kHere, 50 * kSecond));
  EXPECT_FALSE(db.IsAvailable(25, kHere, 150 * kSecond));
  EXPECT_TRUE(db.IsAvailable(25, kHere, 250 * kSecond));
}

TEST(DatabaseTest, LeaseShortenedByScheduledIncumbent) {
  SpectrumDatabase db;
  db.AddIncumbent({.id = "future", .channel = 25, .location = kHere,
                   .protection_radius_m = 5000.0, .start = 3600 * kSecond, .stop = 0});
  const auto channels = db.Query(kHere, 0);
  for (const auto& a : channels) {
    if (a.channel.number == 25) {
      EXPECT_EQ(a.lease_expiry, 3600 * kSecond);
    } else {
      EXPECT_GT(a.lease_expiry, 3600 * kSecond);
    }
  }
}

TEST(DatabaseTest, OutOfBandChannelUnavailable) {
  SpectrumDatabase db;
  EXPECT_FALSE(db.IsAvailable(2, kHere, 0));
  EXPECT_FALSE(db.IsAvailable(52, kHere, 0));
}

TEST(PawsTest, InitHandshake) {
  SpectrumDatabase db(DatabaseConfig{.regulatory = Regulatory::kEu,
                                     .first_channel = 21,
                                     .last_channel = 60});
  PawsServer server(db);
  PawsClient client({.serial_number = "ap-1"}, Regulatory::kEu);
  const auto resp = server.Handle(client.BuildInitRequest(kHere), 0);
  const auto ruleset = client.ParseInitResponse(resp);
  ASSERT_TRUE(ruleset.has_value());
  EXPECT_EQ(*ruleset, "EtsiEn301598-2014");
}

TEST(PawsTest, AvailSpectrumRoundTrip) {
  SpectrumDatabase db;
  db.AddIncumbent({.id = "tv", .channel = 14, .location = kHere,
                   .protection_radius_m = 50'000.0});
  PawsServer server(db);
  PawsClient client({.serial_number = "ap-1"}, Regulatory::kUs);
  server.Handle(client.BuildInitRequest(kHere), 0);

  const auto resp =
      server.Handle(client.BuildAvailSpectrumRequest(kHere, true), 5 * kSecond);
  const auto parsed = client.ParseAvailSpectrumResponse(resp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ruleset, "FccTvBandWhiteSpace-2010");
  EXPECT_EQ(parsed->channels.size(), 37u);  // 38 minus blocked ch14
  for (const auto& a : parsed->channels) {
    EXPECT_NE(a.channel.number, 14);
    EXPECT_EQ(a.lease_start, 5 * kSecond);
    EXPECT_GT(a.lease_expiry, 5 * kSecond);
  }
}

TEST(PawsTest, AvailSpectrumRejectsOutOfRangeLeaseTime) {
  SpectrumDatabase db;
  PawsServer server(db);
  PawsClient client({.serial_number = "ap-1"}, Regulatory::kUs);
  server.Handle(client.BuildInitRequest(kHere), 0);
  auto v = json::Parse(server.Handle(client.BuildAvailSpectrumRequest(kHere, true), 0));
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(client.ParseAvailSpectrumResponse(v->Dump()).has_value());
  // 1e300 ns fits no SimTime: the response is rejected, not wrapped.
  (*v)["result"]["spectrumSchedules"].as_array().at(0)["eventTime"]["startTimeNs"] = 1e300;
  EXPECT_FALSE(client.ParseAvailSpectrumResponse(v->Dump()).has_value());
}

TEST(PawsTest, AvailSpectrumRejectsMistypedProfileFields) {
  SpectrumDatabase db;
  PawsServer server(db);
  PawsClient client({.serial_number = "ap-1"}, Regulatory::kUs);
  server.Handle(client.BuildInitRequest(kHere), 0);
  const auto good = json::Parse(server.Handle(client.BuildAvailSpectrumRequest(kHere, true), 0));
  ASSERT_TRUE(good.has_value());
  ASSERT_TRUE(client.ParseAvailSpectrumResponse(good->Dump()).has_value());
  // Each probe retypes one field of the first profile: a string or a
  // fractional channel, a channel past int, a null power, a string
  // frequency. The response is rejected; nothing throws or truncates.
  const std::vector<std::pair<const char*, json::Value>> probes = {
      {"channelNumber", json::Value("21")}, {"channelNumber", json::Value(21.5)},
      {"channelNumber", json::Value(3e9)},  {"dbm", json::Value(nullptr)},
      {"hz", json::Value("600e6")}};
  for (const auto& [field, value] : probes) {
    json::Value v = *good;
    v["result"]["spectrumSchedules"].as_array().at(0)["spectra"].as_array().at(0)["profiles"]
        .as_array()
        .at(0)[field] = value;
    std::optional<AvailSpectrumResponse> parsed;
    EXPECT_NO_THROW(parsed = client.ParseAvailSpectrumResponse(v.Dump()))
        << field << "=" << value.Dump();
    EXPECT_FALSE(parsed.has_value()) << field << "=" << value.Dump();
  }
}

TEST(PawsTest, NonIntegerIdsNeverMatch) {
  SpectrumDatabase db;
  PawsServer server(db);
  PawsClient client({.serial_number = "ap-1"}, Regulatory::kUs);
  const std::string init_request = client.BuildInitRequest(kHere);
  const auto init_id = PawsClient::RequestId(init_request);
  ASSERT_TRUE(init_id.has_value());
  auto init = json::Parse(server.Handle(init_request, 0));
  ASSERT_TRUE(init.has_value());
  ASSERT_TRUE(client.ParseInitResponse(init->Dump(), *init_id).has_value());
  const std::string request = client.BuildAvailSpectrumRequest(kHere, true);
  const auto id = PawsClient::RequestId(request);
  ASSERT_TRUE(id.has_value());
  auto avail = json::Parse(server.Handle(request, 0));
  ASSERT_TRUE(avail.has_value());
  ASSERT_TRUE(client.ParseAvailSpectrumResponse(avail->Dump(), *id).has_value());
  // A fractional id once truncated onto the expected one; a huge one was a
  // float-cast overflow. Both are mismatches now.
  for (const double bad : {*id + 0.5, 1e300}) {
    (*avail)["id"] = bad;
    EXPECT_FALSE(client.ParseAvailSpectrumResponse(avail->Dump(), *id).has_value()) << bad;
    (*init)["id"] = bad;
    EXPECT_FALSE(client.ParseInitResponse(init->Dump(), *init_id).has_value()) << bad;
  }
  EXPECT_FALSE(PawsClient::RequestId(R"({"id":7.5})").has_value());
  EXPECT_FALSE(PawsClient::RequestId(R"({"id":"7"})").has_value());
}

TEST(PawsTest, SlaveRequestGetsClientPowerCap) {
  SpectrumDatabase db;
  PawsServer server(db);
  PawsClient client({.serial_number = "ap-1"}, Regulatory::kUs);
  server.Handle(client.BuildInitRequest(kHere), 0);
  const auto resp = server.Handle(client.BuildAvailSpectrumRequest(kHere, false), 0);
  const auto parsed = client.ParseAvailSpectrumResponse(resp);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_FALSE(parsed->channels.empty());
  EXPECT_DOUBLE_EQ(parsed->channels.front().max_eirp_dbm, 20.0);
}

TEST(PawsTest, NotifyAccepted) {
  SpectrumDatabase db;
  PawsServer server(db);
  PawsClient client({.serial_number = "ap-1"}, Regulatory::kUs);
  server.Handle(client.BuildInitRequest(kHere), 0);
  ChannelAvailability a;
  a.channel = {.number = 21, .regulatory = Regulatory::kUs};
  const auto resp = server.Handle(client.BuildSpectrumUseNotify(kHere, a), 0);
  auto v = json::Parse(resp);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->Find("result"), nullptr);
}


TEST(PawsTest, SpectrumQueryRequiresInit) {
  SpectrumDatabase db;
  PawsServer server(db);
  PawsClient client({.serial_number = "rogue-ap"}, Regulatory::kUs);
  // No INIT: the server must refuse with error -201.
  const auto resp = server.Handle(client.BuildAvailSpectrumRequest(kHere, true), 0);
  auto v = json::Parse(resp);
  ASSERT_TRUE(v.has_value());
  const auto* err = v->Find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->Find("code")->as_integer<int>(), -201);
  EXPECT_FALSE(server.IsRegistered("rogue-ap"));
  // After INIT the same query succeeds.
  server.Handle(client.BuildInitRequest(kHere), 0);
  EXPECT_TRUE(server.IsRegistered("rogue-ap"));
  const auto ok = client.ParseAvailSpectrumResponse(
      server.Handle(client.BuildAvailSpectrumRequest(kHere, true), 0));
  EXPECT_TRUE(ok.has_value());
}

TEST(PawsTest, NotifyRecordsChannelsInUse) {
  SpectrumDatabase db;
  PawsServer server(db);
  PawsClient client({.serial_number = "ap-9"}, Regulatory::kUs);
  server.Handle(client.BuildInitRequest(kHere), 0);
  ChannelAvailability a;
  a.channel = {.number = 23, .regulatory = Regulatory::kUs};
  server.Handle(client.BuildSpectrumUseNotify(kHere, a), 0);
  const auto used = server.ReportedUse("ap-9");
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(used[0], 23);
  // A second notify replaces the record.
  a.channel.number = 31;
  server.Handle(client.BuildSpectrumUseNotify(kHere, a), 0);
  EXPECT_EQ(server.ReportedUse("ap-9"), std::vector<int>{31});
  EXPECT_TRUE(server.ReportedUse("unknown").empty());
}

TEST(PawsTest, MalformedRequestsGetJsonRpcErrors) {
  SpectrumDatabase db;
  PawsServer server(db);
  for (const char* bad :
       {"not json", "{}", R"({"jsonrpc":"2.0","method":"nope","params":{},"id":1})",
        R"({"jsonrpc":"2.0","method":"spectrum.paws.getSpectrum","params":{},"id":2})"}) {
    const auto resp = server.Handle(bad, 0);
    auto v = json::Parse(resp);
    ASSERT_TRUE(v.has_value()) << bad;
    EXPECT_NE(v->Find("error"), nullptr) << bad;
  }
}

TEST(PawsTest, GeoLocationJsonRoundTrip) {
  GeoLocation loc{.latitude = 1.25, .longitude = -3.5, .uncertainty_m = 12.0};
  const auto parsed = GeoLocationFromJson(GeoLocationToJson(loc));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->latitude, 1.25);
  EXPECT_DOUBLE_EQ(parsed->longitude, -3.5);
  EXPECT_DOUBLE_EQ(parsed->uncertainty_m, 12.0);
}

}  // namespace
}  // namespace cellfi::tvws
