#include "cellfi/tvws/paws_session.h"

#include <algorithm>
#include <utility>

#include "cellfi/common/json.h"
#include "cellfi/common/logging.h"
#include "cellfi/obs/trace.h"

namespace cellfi::tvws {

const char* SessionStateName(SessionState s) {
  switch (s) {
    case SessionState::kHealthy:
      return "healthy";
    case SessionState::kDegraded:
      return "degraded";
    case SessionState::kLost:
      return "lost";
  }
  return "?";
}

PawsSession::PawsSession(Simulator& sim, PawsClient& client, PawsTransport& transport,
                         PawsSessionConfig config)
    : sim_(sim), client_(client), transport_(transport), config_(config),
      rng_(config.seed) {}

void PawsSession::Init(const GeoLocation& location, InitHandler done) {
  auto r = std::make_unique<Request>();
  r->kind = Kind::kInit;
  r->location = location;
  r->on_init = std::move(done);
  Submit(std::move(r));
}

void PawsSession::GetSpectrum(const GeoLocation& location, bool master,
                              SpectrumHandler done) {
  auto r = std::make_unique<Request>();
  r->kind = Kind::kGetSpectrum;
  r->location = location;
  r->master = master;
  r->on_spectrum = std::move(done);
  Submit(std::move(r));
}

void PawsSession::NotifyUse(const GeoLocation& location,
                            const ChannelAvailability& channel) {
  auto r = std::make_unique<Request>();
  r->kind = Kind::kNotify;
  r->location = location;
  r->channel = channel;
  Submit(std::move(r));
}

void PawsSession::Reset() {
  const std::uint64_t abandoned = inflight_.size();
  // Destroying the requests cancels their timers; transport callbacks that
  // later arrive for these ids find no in-flight entry and are dropped.
  inflight_.clear();
  last_good_master_.reset();
  last_good_slave_.reset();
  last_success_time_ = -1;
  state_ = SessionState::kHealthy;  // a fresh process starts optimistic
  if (obs::TraceSink* tr = obs::ActiveTrace()) {
    tr->Emit(sim_.Now(), "paws_session", "reset", {{"abandoned", abandoned}});
  }
}

bool PawsSession::CacheHoldsLease(SimTime now) const {
  if (!last_good_master_) return false;
  return std::any_of(last_good_master_->channels.begin(),
                     last_good_master_->channels.end(),
                     [now](const ChannelAvailability& a) { return a.lease_expiry > now; });
}

void PawsSession::Submit(std::unique_ptr<Request> request) {
  ++counters_.requests;
  request->id = next_request_id_++;
  request->timer = std::make_unique<Timer>(sim_);
  Request* r = request.get();
  inflight_[r->id] = std::move(request);
  StartAttempt(r);
}

void PawsSession::StartAttempt(Request* r) {
  ++r->attempts;
  ++r->generation;
  ++counters_.attempts;
  if (r->attempts > 1) ++counters_.retries;

  std::string body;
  switch (r->kind) {
    case Kind::kInit:
      body = client_.BuildInitRequest(r->location);
      break;
    case Kind::kGetSpectrum:
      body = client_.BuildAvailSpectrumRequest(r->location, r->master);
      break;
    case Kind::kNotify:
      body = client_.BuildSpectrumUseNotify(r->location, r->channel);
      break;
  }
  const int expected_id = PawsClient::RequestId(body).value_or(PawsClient::kAnyRequestId);

  const std::uint64_t id = r->id;
  const std::uint64_t generation = r->generation;
  transport_.Send(body, [this, id, generation, expected_id](const std::string& response) {
    OnResponse(id, generation, expected_id, response);
  });
  r->timer->Arm(config_.request_timeout, [this, id, generation] {
    auto it = inflight_.find(id);
    if (it == inflight_.end() || it->second->generation != generation) return;
    ++counters_.timeouts;
    OnAttemptFailed(it->second.get());
  });
}

void PawsSession::OnResponse(std::uint64_t id, std::uint64_t generation,
                             int expected_id, const std::string& body) {
  auto it = inflight_.find(id);
  if (it == inflight_.end() || it->second->generation != generation) {
    ++counters_.late_responses;  // timed out (or finished) before arrival
    return;
  }
  Request* r = it->second.get();
  r->timer->Cancel();

  // Classify the response for diagnostics before the typed parse.
  const auto parsed = json::Parse(body);
  if (!parsed || !parsed->is_object()) {
    ++counters_.parse_failures;
    OnAttemptFailed(r);
    return;
  }
  if (parsed->Find("error") != nullptr) {
    ++counters_.rpc_errors;
    OnAttemptFailed(r);
    return;
  }
  if (expected_id != PawsClient::kAnyRequestId) {
    const json::Value* rid = parsed->Find("id");
    if (rid == nullptr || rid->as_integer<int>() != expected_id) {
      ++counters_.id_mismatches;
      OnAttemptFailed(r);
      return;
    }
  }

  switch (r->kind) {
    case Kind::kInit: {
      auto ruleset = client_.ParseInitResponse(body, expected_id);
      if (!ruleset) {
        ++counters_.parse_failures;
        OnAttemptFailed(r);
        return;
      }
      Finish(r, /*success=*/true, std::move(ruleset), std::nullopt);
      return;
    }
    case Kind::kGetSpectrum: {
      auto spectrum = client_.ParseAvailSpectrumResponse(body, expected_id);
      if (!spectrum) {
        ++counters_.parse_failures;
        OnAttemptFailed(r);
        return;
      }
      Finish(r, /*success=*/true, std::nullopt, std::move(spectrum));
      return;
    }
    case Kind::kNotify:
      // Any well-formed non-error result acknowledges the notify.
      Finish(r, /*success=*/true, std::nullopt, std::nullopt);
      return;
  }
}

SimTime PawsSession::BackoffDelay(int attempt) {
  // attempt = number of attempts already made; exponent grows per retry.
  SimTime delay = config_.backoff_base;
  for (int i = 1; i < attempt && delay < config_.backoff_cap; ++i) delay *= 2;
  delay = std::min(delay, config_.backoff_cap);
  if (config_.backoff_jitter > 0.0) {
    const double factor =
        rng_.Uniform(1.0 - config_.backoff_jitter, 1.0 + config_.backoff_jitter);
    delay = static_cast<SimTime>(static_cast<double>(delay) * factor);
  }
  return std::max<SimTime>(delay, 1);
}

void PawsSession::OnAttemptFailed(Request* r) {
  if (r->attempts >= config_.max_attempts) {
    Finish(r, /*success=*/false, std::nullopt, std::nullopt);
    return;
  }
  r->timer->Arm(BackoffDelay(r->attempts), [this, id = r->id] {
    auto it = inflight_.find(id);
    if (it == inflight_.end()) return;
    StartAttempt(it->second.get());
  });
}

void PawsSession::Finish(Request* r, bool success, std::optional<std::string> ruleset,
                         std::optional<AvailSpectrumResponse> spectrum) {
  // Detach before delivering: the handler may submit follow-up requests.
  auto it = inflight_.find(r->id);
  std::unique_ptr<Request> owned = std::move(it->second);
  inflight_.erase(it);
  owned->timer->Cancel();

  if (obs::TraceSink* tr = obs::ActiveTrace()) {
    const char* kind = owned->kind == Kind::kInit           ? "init"
                       : owned->kind == Kind::kGetSpectrum ? "spectrum"
                                                           : "notify";
    tr->Emit(sim_.Now(), "paws_session",
             success ? "request_ok" : "request_failed",
             {{"kind", kind}, {"attempts", owned->attempts}});
  }

  if (success) {
    ++counters_.successes;
    last_success_time_ = sim_.Now();
    if (owned->kind == Kind::kGetSpectrum) {
      (owned->master ? last_good_master_ : last_good_slave_) = spectrum;
    }
    SetState(SessionState::kHealthy);
  } else {
    ++counters_.failures;
    CELLFI_WARN << "PAWS request failed after " << owned->attempts << " attempts at t="
                << ToSeconds(sim_.Now()) << " s";
    SetState(CacheHoldsLease(sim_.Now()) ? SessionState::kDegraded : SessionState::kLost);
  }

  if (owned->kind == Kind::kInit && owned->on_init) {
    owned->on_init(success ? std::move(ruleset) : std::nullopt);
  } else if (owned->kind == Kind::kGetSpectrum && owned->on_spectrum) {
    owned->on_spectrum(success ? std::move(spectrum) : std::nullopt);
  }
}

void PawsSession::SetState(SessionState next) {
  if (next == state_) return;
  if (obs::TraceSink* tr = obs::ActiveTrace()) {
    tr->Emit(sim_.Now(), "paws_session", "state_change",
             {{"from", SessionStateName(state_)}, {"to", SessionStateName(next)}});
  }
  state_ = next;
  ++counters_.state_changes;
  if (on_state_change) on_state_change(next);
}

}  // namespace cellfi::tvws
