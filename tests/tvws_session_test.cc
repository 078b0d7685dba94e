// Chaos regression for the PAWS transport/session layers and the ETSI
// vacate-deadline invariant (ISSUE 1):
//  * retry/backoff/timeout mechanics against a scripted lossy transport,
//  * JSON-RPC id validation, corruption and error injection,
//  * cached-last-good / degraded / lost session states,
//  * outage sweeps across the 60 s boundary: the AP timeline must never
//    show transmission more than `etsi_vacate_budget` past the last
//    successful lease confirmation, for every outage length and poll rate.
#include "cellfi/tvws/paws_session.h"

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cellfi/common/json.h"
#include "cellfi/obs/trace.h"
#include "cellfi/scenario/outage.h"
#include "cellfi/tvws/paws_transport.h"

namespace cellfi::tvws {
namespace {

const GeoLocation kHere{.latitude = 47.64, .longitude = -122.13};

/// Forwards to an in-process server, but drops the first `drop_first`
/// requests; records every send time.
class ScriptedTransport final : public PawsTransport {
 public:
  ScriptedTransport(Simulator& sim, PawsServer& server, int drop_first)
      : sim_(sim), inner_(sim, server), drop_first_(drop_first) {}

  void Send(const std::string& request, ResponseHandler on_response) override {
    send_times.push_back(sim_.Now());
    if (static_cast<int>(send_times.size()) <= drop_first_) return;
    inner_.Send(request, std::move(on_response));
  }

  std::vector<SimTime> send_times;

 private:
  Simulator& sim_;
  InProcessTransport inner_;
  int drop_first_;
};

/// Forwards to an inner transport and rewrites every response body.
class RewritingTransport final : public PawsTransport {
 public:
  using Rewrite = std::function<std::string(const std::string&)>;
  RewritingTransport(PawsTransport& inner, Rewrite rewrite)
      : inner_(inner), rewrite_(std::move(rewrite)) {}

  void Send(const std::string& request, ResponseHandler on_response) override {
    inner_.Send(request, [this, on_response = std::move(on_response)](
                             const std::string& response) { on_response(rewrite_(response)); });
  }

 private:
  PawsTransport& inner_;
  Rewrite rewrite_;
};

/// `body` with its top-level "id" set to `value`.
std::string SetResponseId(const std::string& body, const json::Value& value) {
  auto v = json::Parse(body);
  if (!v || !v->is_object()) return body;
  (*v)["id"] = value;
  return v->Dump();
}

/// `body` with `field` of its first avail-spectrum profile set to `value`;
/// other responses pass through unchanged.
std::string SetFirstProfileField(const std::string& body, const char* field,
                                 const json::Value& value) {
  auto v = json::Parse(body);
  if (!v || !v->is_object() || v->Find("result") == nullptr) return body;
  json::Value& result = (*v)["result"];
  if (result.Find("spectrumSchedules") == nullptr) return body;
  result["spectrumSchedules"].as_array().at(0)["spectra"].as_array().at(0)["profiles"]
      .as_array()
      .at(0)[field] = value;
  return v->Dump();
}

class SessionFixture : public ::testing::Test {
 protected:
  PawsSessionConfig NoJitterConfig() {
    PawsSessionConfig cfg;
    cfg.request_timeout = 2 * kSecond;
    cfg.max_attempts = 4;
    cfg.backoff_base = 500 * kMillisecond;
    cfg.backoff_cap = 8 * kSecond;
    cfg.backoff_jitter = 0.0;
    return cfg;
  }

  Simulator sim_;
  SpectrumDatabase db_;
  PawsServer server_{db_};
};

TEST_F(SessionFixture, RetriesWithExponentialBackoffThenSucceeds) {
  ScriptedTransport transport(sim_, server_, /*drop_first=*/2);
  PawsClient client({.serial_number = "s1"}, Regulatory::kUs);
  PawsSession session(sim_, client, transport, NoJitterConfig());

  std::optional<std::string> got;
  int calls = 0;
  session.Init(kHere, [&](std::optional<std::string> ruleset) {
    ++calls;
    got = std::move(ruleset);
  });
  sim_.Run();

  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "FccTvBandWhiteSpace-2010");
  // Attempt 1 at t=0; timeout 2 s + backoff 0.5 s -> attempt 2 at 2.5 s;
  // timeout + backoff 1 s -> attempt 3 at 5.5 s (succeeds).
  ASSERT_EQ(transport.send_times.size(), 3u);
  EXPECT_EQ(transport.send_times[0], 0);
  EXPECT_EQ(transport.send_times[1], 2'500 * kMillisecond);
  EXPECT_EQ(transport.send_times[2], 5'500 * kMillisecond);
  EXPECT_EQ(session.counters().attempts, 3u);
  EXPECT_EQ(session.counters().retries, 2u);
  EXPECT_EQ(session.counters().timeouts, 2u);
  EXPECT_EQ(session.counters().successes, 1u);
  EXPECT_EQ(session.counters().failures, 0u);
}

TEST_F(SessionFixture, BackoffIsCappedAtConfiguredMaximum) {
  ScriptedTransport transport(sim_, server_, /*drop_first=*/1000);
  PawsClient client({.serial_number = "s2"}, Regulatory::kUs);
  auto cfg = NoJitterConfig();
  cfg.backoff_base = 1 * kSecond;
  cfg.backoff_cap = 2 * kSecond;
  cfg.max_attempts = 6;
  PawsSession session(sim_, client, transport, cfg);

  session.Init(kHere, [](std::optional<std::string>) {});
  sim_.Run();

  // Gaps: timeout + min(base * 2^k, cap) = 3, 4, 4, 4, 4 seconds.
  ASSERT_EQ(transport.send_times.size(), 6u);
  const std::vector<SimTime> expected_gaps = {3 * kSecond, 4 * kSecond, 4 * kSecond,
                                              4 * kSecond, 4 * kSecond};
  for (std::size_t i = 0; i + 1 < transport.send_times.size(); ++i) {
    EXPECT_EQ(transport.send_times[i + 1] - transport.send_times[i], expected_gaps[i])
        << "gap " << i;
  }
}

TEST_F(SessionFixture, BackoffJitterStaysWithinConfiguredBounds) {
  ScriptedTransport transport(sim_, server_, /*drop_first=*/1000);
  PawsClient client({.serial_number = "s3"}, Regulatory::kUs);
  auto cfg = NoJitterConfig();
  cfg.backoff_jitter = 0.25;
  cfg.max_attempts = 4;
  cfg.seed = 1234;  // deterministic jitter draw
  PawsSession session(sim_, client, transport, cfg);

  session.Init(kHere, [](std::optional<std::string>) {});
  sim_.Run();

  ASSERT_EQ(transport.send_times.size(), 4u);
  const std::vector<SimTime> nominal = {500 * kMillisecond, 1 * kSecond, 2 * kSecond};
  for (std::size_t i = 0; i + 1 < transport.send_times.size(); ++i) {
    const SimTime gap = transport.send_times[i + 1] - transport.send_times[i];
    const SimTime backoff = gap - cfg.request_timeout;
    EXPECT_GE(backoff, static_cast<SimTime>(0.75 * static_cast<double>(nominal[i])));
    EXPECT_LE(backoff, static_cast<SimTime>(1.25 * static_cast<double>(nominal[i])));
  }
}

TEST_F(SessionFixture, GivesUpAfterMaxAttemptsAndReportsLost) {
  ScriptedTransport transport(sim_, server_, /*drop_first=*/1000);
  PawsClient client({.serial_number = "s4"}, Regulatory::kUs);
  PawsSession session(sim_, client, transport, NoJitterConfig());

  std::optional<std::string> got = "sentinel";
  session.Init(kHere, [&](std::optional<std::string> ruleset) { got = std::move(ruleset); });
  sim_.Run();

  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(session.counters().attempts, 4u);
  EXPECT_EQ(session.counters().failures, 1u);
  EXPECT_EQ(session.counters().successes, 0u);
  // No cached lease exists, so the session is lost, not merely degraded.
  EXPECT_EQ(session.state(), SessionState::kLost);
}

TEST_F(SessionFixture, ClientRejectsResponseIdMismatch) {
  PawsClient client({.serial_number = "s5"}, Regulatory::kUs);
  server_.Handle(client.BuildInitRequest(kHere), 0);
  const std::string request = client.BuildAvailSpectrumRequest(kHere, true);
  const auto id = PawsClient::RequestId(request);
  ASSERT_TRUE(id.has_value());
  const std::string response = server_.Handle(request, 0);

  EXPECT_TRUE(client.ParseAvailSpectrumResponse(response, *id).has_value());
  EXPECT_FALSE(client.ParseAvailSpectrumResponse(response, *id + 1).has_value());
  // Default (no expected id) keeps the lenient legacy behavior.
  EXPECT_TRUE(client.ParseAvailSpectrumResponse(response).has_value());
}

TEST_F(SessionFixture, SessionRejectsMangledResponseIds) {
  InProcessTransport wire(sim_, server_);
  FaultProfile profile;
  profile.wrong_id_probability = 1.0;
  FaultyTransport faulty(sim_, wire, profile);
  PawsClient client({.serial_number = "s6"}, Regulatory::kUs);
  PawsSession session(sim_, client, faulty, NoJitterConfig());

  std::optional<std::string> got = "sentinel";
  session.Init(kHere, [&](std::optional<std::string> ruleset) { got = std::move(ruleset); });
  sim_.Run();

  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(session.counters().id_mismatches, 4u);
  EXPECT_EQ(faulty.counters().ids_mangled, 4u);
}

TEST_F(SessionFixture, SessionRejectsFractionalResponseIds) {
  // id + 0.5 once truncated onto the expected id and was accepted.
  InProcessTransport wire(sim_, server_);
  RewritingTransport fractional(wire, [](const std::string& body) {
    auto v = json::Parse(body);
    const json::Value* id = v ? v->Find("id") : nullptr;
    if (id == nullptr || !id->is_number()) return body;
    return SetResponseId(body, json::Value(id->as_number() + 0.5));
  });
  PawsClient client({.serial_number = "s9"}, Regulatory::kUs);
  PawsSession session(sim_, client, fractional, NoJitterConfig());

  std::optional<std::string> got = "sentinel";
  session.Init(kHere, [&](std::optional<std::string> ruleset) { got = std::move(ruleset); });
  sim_.Run();

  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(session.counters().id_mismatches, 4u);
}

TEST_F(SessionFixture, SessionRejectsMistypedProfilesWithoutThrowing) {
  // Each mistyped field once threw std::bad_variant_access out of the
  // response handler or cast 3e9 to int; the session now counts a parse
  // failure and retries, then reports the request lost.
  const std::vector<std::pair<const char*, json::Value>> probes = {
      {"channelNumber", json::Value("21")},
      {"dbm", json::Value(nullptr)},
      {"channelNumber", json::Value(3e9)}};
  for (const auto& [field, value] : probes) {
    Simulator sim;
    SpectrumDatabase db;
    PawsServer server(db);
    InProcessTransport wire(sim, server);
    RewritingTransport mistyped(wire, [field = field, value = value](const std::string& body) {
      return SetFirstProfileField(body, field, value);
    });
    PawsClient client({.serial_number = "s10"}, Regulatory::kUs);
    server.Handle(client.BuildInitRequest(kHere), 0);
    PawsSession session(sim, client, mistyped, NoJitterConfig());

    std::optional<AvailSpectrumResponse> got = AvailSpectrumResponse{};
    session.GetSpectrum(kHere, /*master=*/true,
                        [&](std::optional<AvailSpectrumResponse> r) { got = std::move(r); });
    EXPECT_NO_THROW(sim.Run()) << field;
    EXPECT_FALSE(got.has_value()) << field;
    EXPECT_EQ(session.counters().parse_failures, 4u) << field;
  }
}

TEST_F(SessionFixture, MangledIdOfTheLargestIntDoesNotOverflow) {
  // FaultyTransport's wrong-id fault adds 1'000'000 to the response id;
  // at INT_MAX that was signed overflow. It is now computed in 64 bits.
  InProcessTransport wire(sim_, server_);
  RewritingTransport max_id(wire, [](const std::string& body) {
    return SetResponseId(body, json::Value(std::numeric_limits<int>::max()));
  });
  FaultProfile profile;
  profile.wrong_id_probability = 1.0;
  FaultyTransport faulty(sim_, max_id, profile);
  PawsClient client({.serial_number = "s11"}, Regulatory::kUs);

  std::string delivered;
  faulty.Send(client.BuildInitRequest(kHere),
              [&](const std::string& response) { delivered = response; });
  sim_.Run();

  const auto v = json::Parse(delivered);
  ASSERT_TRUE(v.has_value());
  ASSERT_NE(v->Find("id"), nullptr);
  EXPECT_EQ(v->Find("id")->as_number(),
            static_cast<double>(std::numeric_limits<int>::max()) + 1'000'000.0);
  EXPECT_EQ(faulty.counters().ids_mangled, 1u);
}

TEST_F(SessionFixture, SessionRejectsCorruptJson) {
  InProcessTransport wire(sim_, server_);
  FaultProfile profile;
  profile.corrupt_probability = 1.0;
  FaultyTransport faulty(sim_, wire, profile);
  PawsClient client({.serial_number = "s7"}, Regulatory::kUs);
  PawsSession session(sim_, client, faulty, NoJitterConfig());

  std::optional<std::string> got = "sentinel";
  session.Init(kHere, [&](std::optional<std::string> ruleset) { got = std::move(ruleset); });
  sim_.Run();

  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(session.counters().parse_failures, 4u);
  EXPECT_EQ(faulty.counters().corrupted, 4u);
}

TEST_F(SessionFixture, SessionRetriesInjectedRpcErrors) {
  InProcessTransport wire(sim_, server_);
  FaultProfile profile;
  profile.error_probability = 1.0;
  FaultyTransport faulty(sim_, wire, profile);
  PawsClient client({.serial_number = "s8"}, Regulatory::kUs);
  PawsSession session(sim_, client, faulty, NoJitterConfig());

  std::optional<std::string> got = "sentinel";
  session.Init(kHere, [&](std::optional<std::string> ruleset) { got = std::move(ruleset); });
  sim_.Run();

  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(session.counters().rpc_errors, 4u);
}

TEST_F(SessionFixture, DegradedWhileCachedLeaseValidThenLost) {
  DatabaseConfig db_cfg;
  db_cfg.lease_duration = 30 * kSecond;  // short lease to cross expiry
  SpectrumDatabase db(db_cfg);
  PawsServer server(db);
  InProcessTransport wire(sim_, server);
  FaultyTransport faulty(sim_, wire, {});
  faulty.AddOutage(10 * kSecond, 10'000 * kSecond);
  PawsClient client({.serial_number = "s9"}, Regulatory::kUs);
  PawsSession session(sim_, client, faulty, NoJitterConfig());

  session.Init(kHere, [](std::optional<std::string>) {});
  std::optional<AvailSpectrumResponse> first;
  session.GetSpectrum(kHere, true, [&](std::optional<AvailSpectrumResponse> r) {
    first = std::move(r);
  });
  sim_.RunUntil(1 * kSecond);
  ASSERT_TRUE(first.has_value());
  ASSERT_FALSE(first->channels.empty());
  EXPECT_EQ(session.state(), SessionState::kHealthy);
  ASSERT_TRUE(session.last_good(true).has_value());

  // Failure inside the cached lease window: degraded (grace), not lost.
  sim_.ScheduleAt(12 * kSecond, [&] {
    session.GetSpectrum(kHere, true, [](std::optional<AvailSpectrumResponse>) {});
  });
  sim_.RunUntil(29 * kSecond);
  EXPECT_EQ(session.state(), SessionState::kDegraded);
  EXPECT_TRUE(session.CacheHoldsLease(sim_.Now()));

  // Failure after the cached lease expired: lost.
  sim_.ScheduleAt(40 * kSecond, [&] {
    session.GetSpectrum(kHere, true, [](std::optional<AvailSpectrumResponse>) {});
  });
  sim_.RunUntil(60 * kSecond);
  EXPECT_FALSE(session.CacheHoldsLease(sim_.Now()));
  EXPECT_EQ(session.state(), SessionState::kLost);
}

// ---------------------------------------------------------------------------
// Outage chaos sweeps (via the scenario-layer runner).

using scenario::OutageScenarioConfig;
using scenario::OutageScenarioResult;
using scenario::RunDatabaseOutage;

/// ETSI EN 301 598 invariant over a full timeline: at no point may the AP
/// be on air more than `budget` past its latest lease confirmation.
void ExpectEtsiInvariant(const OutageScenarioResult& r, SimTime budget, SimTime run_end) {
  bool on = false;
  SimTime last_confirm = -1;
  std::size_t next_confirm = 0;
  auto advance_confirms = [&](SimTime until) {
    while (next_confirm < r.lease_confirms.size() &&
           r.lease_confirms[next_confirm] <= until) {
      if (on) {
        // While transmitting, consecutive confirmations may never be more
        // than the budget apart.
        EXPECT_LE(r.lease_confirms[next_confirm] - last_confirm, budget)
            << "confirmation gap while on air";
      }
      last_confirm = r.lease_confirms[next_confirm];
      ++next_confirm;
    }
  };
  for (const core::TimelineEvent& e : r.timeline) {
    advance_confirms(e.time);
    if (e.what == "ap_on") {
      on = true;
    } else if (e.what == "ap_off") {
      ASSERT_GE(last_confirm, 0);
      EXPECT_LE(e.time - last_confirm, budget)
          << "transmitted past the vacate budget before ap_off";
      on = false;
    }
  }
  advance_confirms(run_end);
  if (on) {
    EXPECT_LE(run_end - last_confirm, budget) << "still on air without fresh lease";
  }
}

TEST(OutageChaosTest, VacateInvariantAcrossOutageDurations) {
  for (const SimTime outage_s : {10, 30, 45, 55, 59, 61, 65, 90, 120, 300}) {
    SCOPED_TRACE("outage_s=" + std::to_string(outage_s));
    OutageScenarioConfig cfg;
    cfg.outage_start = 300 * kSecond;
    cfg.outage_duration = outage_s * kSecond;
    cfg.run_until = cfg.outage_start + cfg.outage_duration + 600 * kSecond;
    const OutageScenarioResult r = RunDatabaseOutage(cfg);

    ASSERT_GE(r.last_confirm_before_outage, 0) << "AP never came on air";
    ExpectEtsiInvariant(r, cfg.selector.etsi_vacate_budget, cfg.run_until);

    const SimTime budget = cfg.selector.etsi_vacate_budget;
    if (outage_s * kSecond > budget) {
      // Hard requirement: off no later than t_lastlease + 60 s, then
      // reacquired once the database came back.
      ASSERT_GE(r.ap_off_at, 0);
      EXPECT_LE(r.ap_off_at, r.last_confirm_before_outage + budget);
      ASSERT_GE(r.reacquired_at, 0) << "did not reacquire after outage";
      EXPECT_EQ(r.final_radio_state, core::ApRadioState::kOn);
      EXPECT_EQ(r.final_state, SessionState::kHealthy);
    }
    if (outage_s <= 45) {
      // Short blips ride on the lease-grace window without ever vacating.
      EXPECT_TRUE(r.rode_through) << "short outage should not cause a vacate";
      EXPECT_LT(r.ap_off_at, 0);
    }
  }
}

TEST(OutageChaosTest, VacateDeadlineIndependentOfPollInterval) {
  for (const SimTime poll_s : {1, 5, 10, 30}) {
    SCOPED_TRACE("poll_s=" + std::to_string(poll_s));
    OutageScenarioConfig cfg;
    cfg.selector.db_poll_interval = poll_s * kSecond;
    cfg.outage_start = 300 * kSecond;
    // 100 % request loss from outage_start to the end of the run.
    cfg.outage_duration = 10'000 * kSecond;
    cfg.run_until = 700 * kSecond;
    const OutageScenarioResult r = RunDatabaseOutage(cfg);

    ASSERT_GE(r.last_confirm_before_outage, 0);
    ASSERT_GE(r.ap_off_at, 0) << "AP kept transmitting through a dead database";
    EXPECT_LE(r.ap_off_at,
              r.last_confirm_before_outage + cfg.selector.etsi_vacate_budget);
    EXPECT_EQ(r.final_radio_state, core::ApRadioState::kOff);
  }
}

TEST(OutageChaosTest, ReacquiresPromptlyAfterOutageClears) {
  OutageScenarioConfig cfg;
  cfg.outage_start = 300 * kSecond;
  cfg.outage_duration = 90 * kSecond;
  cfg.run_until = 1000 * kSecond;
  const OutageScenarioResult r = RunDatabaseOutage(cfg);

  ASSERT_GE(r.ap_off_at, 0);
  ASSERT_GE(r.reacquired_at, 0);
  // Outage end + (in-flight retry drain + poll) + reboot, with slack.
  const SimTime latest = r.outage_end + 30 * kSecond + cfg.selector.reboot_duration;
  EXPECT_GE(r.reacquired_at, r.outage_end + cfg.selector.reboot_duration);
  EXPECT_LE(r.reacquired_at, latest);
  EXPECT_EQ(r.final_state, SessionState::kHealthy);
}

TEST(OutageChaosTest, SurvivesLossyLatentLinkWithoutViolations) {
  OutageScenarioConfig cfg;
  cfg.outage_duration = 0;  // no outage, just a bad link
  cfg.faults.latency_base = 100 * kMillisecond;
  cfg.faults.latency_jitter = 150 * kMillisecond;
  cfg.faults.drop_probability = 0.3;
  cfg.faults.corrupt_probability = 0.05;
  cfg.faults.error_probability = 0.05;
  cfg.run_until = 1200 * kSecond;
  const OutageScenarioResult r = RunDatabaseOutage(cfg);

  ExpectEtsiInvariant(r, cfg.selector.etsi_vacate_budget, cfg.run_until);
  EXPECT_EQ(r.final_radio_state, core::ApRadioState::kOn);
  EXPECT_GT(r.session.retries, 0u);
  EXPECT_GT(r.transport.dropped_random, 0u);
}

// ---------------------------------------------------------------------------
// Trace-level vacate checks (DESIGN.md §13): the same ETSI deadline the
// chaos sweeps assert from the result struct, re-derived purely from the
// emitted trace — which is what tools/trace_check.py `deadline` consumes
// offline.

/// Scan the channel_selector events: every vacate_fired must come at most
/// `budget` after the latest preceding vacate_armed (a fresh lease re-arms
/// the deadline). Returns the number of fired events checked.
int ExpectVacateDeadlineFromTrace(const obs::TraceSink& sink, SimTime budget) {
  const std::int64_t budget_us = budget / kMicrosecond;
  std::int64_t last_armed_us = -1;
  int fired = 0;
  for (const obs::TraceEvent& ev : sink.Events("channel_selector")) {
    if (ev.event == "vacate_armed") {
      last_armed_us = ev.sim_time_us;
      // The event self-describes its deadline; cross-check the field.
      const obs::FieldValue* deadline = ev.Find("deadline_us");
      if (deadline != nullptr) {
        EXPECT_EQ(deadline->as_int(), ev.sim_time_us + budget_us);
      }
    } else if (ev.event == "vacate_fired") {
      ++fired;
      if (last_armed_us < 0) {
        ADD_FAILURE() << "vacate_fired with no preceding arm";
        continue;
      }
      EXPECT_LE(ev.sim_time_us - last_armed_us, budget_us)
          << "vacated later than the ETSI budget allows";
    }
  }
  return fired;
}

TEST(VacateTraceTest, FiredWithinBudgetAcrossFaultSchedules) {
  struct Case {
    const char* name;
    OutageScenarioConfig cfg;
  };
  std::vector<Case> cases;
  {
    Case c{"dead_database", {}};
    c.cfg.outage_start = 300 * kSecond;
    c.cfg.outage_duration = 10'000 * kSecond;  // never recovers in-run
    c.cfg.run_until = 700 * kSecond;
    cases.push_back(c);
  }
  {
    Case c{"outage_with_lossy_link", {}};
    c.cfg.outage_start = 300 * kSecond;
    c.cfg.outage_duration = 90 * kSecond;
    c.cfg.faults.latency_base = 50 * kMillisecond;
    c.cfg.faults.latency_jitter = 100 * kMillisecond;
    c.cfg.faults.drop_probability = 0.2;
    c.cfg.faults.error_probability = 0.05;
    c.cfg.run_until = 1000 * kSecond;
    cases.push_back(c);
  }
  {
    Case c{"slow_poll", {}};
    c.cfg.selector.db_poll_interval = 30 * kSecond;
    c.cfg.outage_start = 300 * kSecond;
    c.cfg.outage_duration = 120 * kSecond;
    c.cfg.run_until = 1000 * kSecond;
    cases.push_back(c);
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    obs::TraceSink sink;
    obs::ObsScope scope(&sink, nullptr);
    const OutageScenarioResult r = RunDatabaseOutage(c.cfg);
    ASSERT_GE(r.ap_off_at, 0) << "schedule was expected to force a vacate";
    const int fired =
        ExpectVacateDeadlineFromTrace(sink, c.cfg.selector.etsi_vacate_budget);
    EXPECT_GE(fired, 1);
    // Every lease confirmation re-armed the deadline in the trace.
    EXPECT_EQ(sink.Events("channel_selector", "vacate_armed").size(),
              r.lease_confirms.size());
  }
}

TEST(VacateTraceTest, OutageEventsBracketVacateAndReacquire) {
  OutageScenarioConfig cfg;
  cfg.outage_start = 300 * kSecond;
  cfg.outage_duration = 90 * kSecond;
  cfg.run_until = 1000 * kSecond;
  obs::TraceSink sink;
  obs::ObsScope scope(&sink, nullptr);
  const OutageScenarioResult r = RunDatabaseOutage(cfg);
  ASSERT_GE(r.reacquired_at, 0);

  // The combined trace must contain, in order: outage begins, the session
  // notices (a state_change away from healthy), the selector vacates,
  // the outage clears, and the AP comes back on air.
  const auto events = sink.Events();
  auto next = [&](std::size_t from, std::string_view component,
                  std::string_view event) {
    for (std::size_t i = from; i < events.size(); ++i) {
      if (events[i].component == component && events[i].event == event) {
        return i;
      }
    }
    return events.size();
  };
  const std::size_t begin = next(0, "outage", "outage_begin");
  ASSERT_LT(begin, events.size());
  const std::size_t degraded = next(begin, "paws_session", "state_change");
  ASSERT_LT(degraded, events.size());
  const std::size_t fired = next(degraded, "channel_selector", "vacate_fired");
  ASSERT_LT(fired, events.size());
  const std::size_t end = next(fired, "outage", "outage_end");
  ASSERT_LT(end, events.size());
  const std::size_t back_on = next(end, "channel_selector", "ap_on");
  ASSERT_LT(back_on, events.size());
  EXPECT_EQ(events[back_on].sim_time_us, r.reacquired_at / kMicrosecond);
}

}  // namespace
}  // namespace cellfi::tvws
