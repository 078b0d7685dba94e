#include "cellfi/tvws/paws_transport.h"

#include <cstdint>
#include <utility>

#include "cellfi/common/json.h"

namespace cellfi::tvws {

void InProcessTransport::Send(const std::string& request, ResponseHandler on_response) {
  // The server is clock-agnostic; it sees the request at send time. The
  // response is delivered as a fresh event so callers never observe a
  // synchronous reply (matching any real transport).
  std::string response = server_.Handle(request, sim_.Now());
  sim_.ScheduleAfter(0, [on_response = std::move(on_response),
                         response = std::move(response)] { on_response(response); });
}

void FaultyTransport::AddOutage(SimTime start, SimTime stop) {
  outages_.emplace_back(start, stop);
}

void FaultyTransport::AddBrownout(const BrownoutWindow& window) {
  brownouts_.push_back(window);
}

bool FaultyTransport::InOutage(SimTime t) const {
  for (const auto& [start, stop] : outages_) {
    if (t >= start && t < stop) return true;
  }
  return false;
}

const BrownoutWindow* FaultyTransport::InBrownout(SimTime t) const {
  for (const BrownoutWindow& w : brownouts_) {
    if (t >= w.start && t < w.stop) return &w;
  }
  return nullptr;
}

std::string FaultyTransport::ApplyResponseFaults(const std::string& response) {
  if (profile_.error_probability > 0.0 &&
      response_rng_.Bernoulli(profile_.error_probability)) {
    // Replace the server's answer with a JSON-RPC error, keeping the id so
    // the reply still correlates with the request (an overloaded database).
    ++counters_.errors_injected;
    json::Value err;
    err["jsonrpc"] = "2.0";
    err["error"]["code"] = profile_.injected_error_code;
    err["error"]["message"] = "database overloaded (injected)";
    if (auto parsed = json::Parse(response); parsed && parsed->is_object()) {
      if (const json::Value* id = parsed->Find("id")) err["id"] = *id;
    }
    return err.Dump();
  }
  if (profile_.wrong_id_probability > 0.0 &&
      response_rng_.Bernoulli(profile_.wrong_id_probability)) {
    // A stale or misrouted reply: valid JSON, wrong correlation id.
    if (auto parsed = json::Parse(response); parsed && parsed->is_object()) {
      ++counters_.ids_mangled;
      const json::Value* id = parsed->Find("id");
      const std::int64_t old_id =
          id != nullptr ? id->as_integer<int>().value_or(0) : 0;
      (*parsed)["id"] = old_id + 1'000'000;
      return parsed->Dump();
    }
  }
  if (profile_.corrupt_probability > 0.0 &&
      response_rng_.Bernoulli(profile_.corrupt_probability)) {
    // Mangle the body into something no JSON parser accepts.
    ++counters_.corrupted;
    return "!corrupt!" + response.substr(0, response.size() / 2);
  }
  return response;
}

void FaultyTransport::Send(const std::string& request, ResponseHandler on_response) {
  ++counters_.requests;
  if (InOutage(sim_.Now())) {
    ++counters_.dropped_outage;
    return;  // the database is down: the request vanishes
  }
  const BrownoutWindow* brownout = InBrownout(sim_.Now());
  if (profile_.drop_probability > 0.0 &&
      drop_rng_.Bernoulli(profile_.drop_probability)) {
    ++counters_.dropped_random;
    return;
  }
  if (brownout != nullptr && brownout->extra_drop_probability > 0.0 &&
      drop_rng_.Bernoulli(brownout->extra_drop_probability)) {
    ++counters_.dropped_brownout;
    return;
  }
  // Only requests that survive every drop gate draw a delay: a lost
  // request must not consume a delay slot, or the latency sequence seen by
  // delivered requests would depend on which requests happened to be lost.
  SimTime latency = profile_.latency_base;
  if (profile_.latency_jitter > 0) {
    latency += static_cast<SimTime>(
        delay_rng_.Uniform(0.0, static_cast<double>(profile_.latency_jitter)));
  }
  if (brownout != nullptr) {
    ++counters_.browned_out;
    latency += brownout->extra_latency;
  }
  inner_.Send(request, [this, latency, on_response = std::move(on_response)](
                           const std::string& response) {
    std::string body = ApplyResponseFaults(response);
    ++counters_.delivered;
    sim_.ScheduleAfter(latency, [on_response, body = std::move(body)] {
      on_response(body);
    });
  });
}

}  // namespace cellfi::tvws
