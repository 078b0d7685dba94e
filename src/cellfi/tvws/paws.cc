#include "cellfi/tvws/paws.h"

#include <algorithm>
#include <cmath>

#include "cellfi/common/logging.h"

namespace cellfi::tvws {

using json::Array;
using json::Object;
using json::Value;

namespace {

constexpr const char* kPawsVersion = "1.0";

const char* RulesetFor(Regulatory reg) {
  return reg == Regulatory::kUs ? "FccTvBandWhiteSpace-2010" : "EtsiEn301598-2014";
}

Value DeviceToJson(const DeviceDescriptor& d) {
  Value v;
  v["serialNumber"] = d.serial_number;
  v["manufacturerId"] = d.manufacturer;
  v["modelId"] = d.model;
  v["etsiEnDeviceType"] = d.etsi_device_type;
  return v;
}

Value MakeRequest(int id, const std::string& method, Value params) {
  Value v;
  v["jsonrpc"] = "2.0";
  v["method"] = method;
  params["type"] = method == "spectrum.paws.init" ? "INIT_REQ"
                   : method == "spectrum.paws.getSpectrum"
                       ? "AVAIL_SPECTRUM_REQ"
                       : "SPECTRUM_USE_NOTIFY";
  params["version"] = kPawsVersion;
  v["params"] = params;
  v["id"] = id;
  return v;
}

Value MakeResult(const Value& id, Value result) {
  Value v;
  v["jsonrpc"] = "2.0";
  v["result"] = std::move(result);
  v["id"] = id;
  return v;
}

Value MakeError(const Value& id, int code, const std::string& message) {
  Value v;
  v["jsonrpc"] = "2.0";
  v["error"]["code"] = code;
  v["error"]["message"] = message;
  v["id"] = id;
  return v;
}

// True when the response's JSON-RPC id is present and equals `expected_id`.
// A missing or different id marks a stale or misrouted reply (RFC 7545
// responses must echo the request id).
bool ResponseIdMatches(const Value& response, int expected_id) {
  const Value* id = response.Find("id");
  return id != nullptr && id->is_number() &&
         static_cast<int>(id->as_number()) == expected_id;
}

}  // namespace

Value GeoLocationToJson(const GeoLocation& loc) {
  Value v;
  v["point"]["center"]["latitude"] = loc.latitude;
  v["point"]["center"]["longitude"] = loc.longitude;
  v["confidence"] = 95;
  v["point"]["uncertainty"] = loc.uncertainty_m;
  return v;
}

std::optional<GeoLocation> GeoLocationFromJson(const Value& v) {
  const Value* point = v.Find("point");
  if (point == nullptr) return std::nullopt;
  const Value* center = point->Find("center");
  if (center == nullptr) return std::nullopt;
  const Value* lat = center->Find("latitude");
  const Value* lon = center->Find("longitude");
  if (lat == nullptr || lon == nullptr || !lat->is_number() || !lon->is_number()) {
    return std::nullopt;
  }
  GeoLocation loc;
  loc.latitude = lat->as_number();
  loc.longitude = lon->as_number();
  if (const Value* u = point->Find("uncertainty"); u != nullptr && u->is_number()) {
    loc.uncertainty_m = u->as_number();
  }
  return loc;
}

PawsClient::PawsClient(DeviceDescriptor device, Regulatory regulatory)
    : device_(std::move(device)), regulatory_(regulatory) {}

std::string PawsClient::BuildInitRequest(const GeoLocation& location) {
  Value params;
  params["deviceDesc"] = DeviceToJson(device_);
  params["location"] = GeoLocationToJson(location);
  return MakeRequest(next_id_++, "spectrum.paws.init", std::move(params)).Dump();
}

std::string PawsClient::BuildAvailSpectrumRequest(const GeoLocation& location,
                                                  bool master) {
  Value params;
  params["deviceDesc"] = DeviceToJson(device_);
  params["location"] = GeoLocationToJson(location);
  params["requestType"] = master ? "" : "SLAVE_DEVICE";
  return MakeRequest(next_id_++, "spectrum.paws.getSpectrum", std::move(params)).Dump();
}

std::string PawsClient::BuildSpectrumUseNotify(const GeoLocation& location,
                                               const ChannelAvailability& channel) {
  Value params;
  params["deviceDesc"] = DeviceToJson(device_);
  params["location"] = GeoLocationToJson(location);
  Value spectrum;
  spectrum["resolutionBwHz"] = TvChannelWidthHz(channel.channel.regulatory);
  Value profile;
  profile["hz"] = channel.channel.CentreFrequencyHz();
  profile["dbm"] = channel.max_eirp_dbm;
  spectrum["profiles"] = Array{profile};
  params["spectra"] = Array{spectrum};
  return MakeRequest(next_id_++, "spectrum.paws.notifySpectrumUse", std::move(params))
      .Dump();
}

std::optional<int> PawsClient::RequestId(const std::string& request) {
  auto v = json::Parse(request);
  if (!v || !v->is_object()) return std::nullopt;
  const Value* id = v->Find("id");
  if (id == nullptr || !id->is_number()) return std::nullopt;
  return static_cast<int>(id->as_number());
}

std::optional<std::string> PawsClient::ParseInitResponse(const std::string& body,
                                                         int expected_id) {
  auto v = json::Parse(body);
  if (!v) return std::nullopt;
  if (expected_id != kAnyRequestId && !ResponseIdMatches(*v, expected_id)) {
    CELLFI_WARN << "PAWS INIT_RESP id mismatch (expected " << expected_id
                << "); rejecting response";
    return std::nullopt;
  }
  const Value* result = v->Find("result");
  if (result == nullptr) return std::nullopt;
  const Value* ruleset = result->Find("rulesetInfos");
  if (ruleset == nullptr || !ruleset->is_array() || ruleset->as_array().empty()) {
    return std::nullopt;
  }
  const Value* authority = ruleset->as_array()[0].Find("authority");
  if (authority == nullptr || !authority->is_string()) return std::nullopt;
  return authority->as_string();
}

std::optional<AvailSpectrumResponse> PawsClient::ParseAvailSpectrumResponse(
    const std::string& body, int expected_id) {
  auto v = json::Parse(body);
  if (!v) return std::nullopt;
  if (expected_id != kAnyRequestId && !ResponseIdMatches(*v, expected_id)) {
    CELLFI_WARN << "PAWS AVAIL_SPECTRUM_RESP id mismatch (expected " << expected_id
                << "); rejecting response";
    return std::nullopt;
  }
  const Value* result = v->Find("result");
  if (result == nullptr) return std::nullopt;

  AvailSpectrumResponse out;
  if (const Value* rs = result->Find("rulesetInfo"); rs != nullptr) {
    if (const Value* auth = rs->Find("authority"); auth != nullptr && auth->is_string()) {
      out.ruleset = auth->as_string();
    }
  }

  const Value* schedules = result->Find("spectrumSchedules");
  if (schedules == nullptr || !schedules->is_array()) return std::nullopt;
  for (const Value& sched : schedules->as_array()) {
    const Value* event = sched.Find("eventTime");
    const Value* spectra = sched.Find("spectra");
    if (event == nullptr || spectra == nullptr || !spectra->is_array()) continue;
    ChannelAvailability avail;
    // A lease bound must be a whole nanosecond count that fits SimTime; an
    // unreadable one invalidates the response rather than the lease.
    if (const Value* st = event->Find("startTimeNs"); st != nullptr && st->is_number()) {
      const auto ns = st->as_integer<SimTime>();
      if (!ns) return std::nullopt;
      avail.lease_start = *ns;
    }
    if (const Value* et = event->Find("stopTimeNs"); et != nullptr && et->is_number()) {
      const auto ns = et->as_integer<SimTime>();
      if (!ns) return std::nullopt;
      avail.lease_expiry = *ns;
    }
    for (const Value& spectrum : spectra->as_array()) {
      const Value* profiles = spectrum.Find("profiles");
      if (profiles == nullptr || !profiles->is_array()) continue;
      for (const Value& profile : profiles->as_array()) {
        const Value* hz = profile.Find("hz");
        const Value* dbm = profile.Find("dbm");
        const Value* ch = profile.Find("channelNumber");
        if (hz == nullptr || dbm == nullptr || ch == nullptr) continue;
        ChannelAvailability a = avail;
        a.channel.number = static_cast<int>(ch->as_number());
        a.channel.regulatory = regulatory_;
        a.max_eirp_dbm = dbm->as_number();
        out.channels.push_back(a);
      }
    }
  }
  return out;
}

PawsServer::PawsServer(const SpectrumDatabase& db) : db_(db) {}

std::string PawsServer::Handle(const std::string& request, SimTime now) {
  ++served_;
  auto v = json::Parse(request);
  if (!v || !v->is_object()) {
    return MakeError(Value(nullptr), -32700, "parse error").Dump();
  }
  const Value* id = v->Find("id");
  const Value id_val = id != nullptr ? *id : Value(nullptr);
  const Value* method = v->Find("method");
  const Value* params = v->Find("params");
  if (method == nullptr || !method->is_string() || params == nullptr) {
    return MakeError(id_val, -32600, "invalid request").Dump();
  }

  const std::string& m = method->as_string();
  if (m == "spectrum.paws.init") {
    return MakeResult(id_val, HandleInit(*params)).Dump();
  }
  if (m == "spectrum.paws.getSpectrum") {
    if (!IsRegistered(SerialOf(*params))) {
      return MakeError(id_val, -201, "device not registered (INIT required)").Dump();
    }
    const Value result = HandleGetSpectrum(*params, now);
    if (result.is_null()) return MakeError(id_val, -202, "missing location").Dump();
    return MakeResult(id_val, result).Dump();
  }
  if (m == "spectrum.paws.notifySpectrumUse") {
    if (!IsRegistered(SerialOf(*params))) {
      return MakeError(id_val, -201, "device not registered (INIT required)").Dump();
    }
    return MakeResult(id_val, HandleNotify(*params)).Dump();
  }
  return MakeError(id_val, -32601, "method not found").Dump();
}

std::string PawsServer::SerialOf(const Value& params) {
  const Value* desc = params.Find("deviceDesc");
  if (desc == nullptr) return {};
  const Value* serial = desc->Find("serialNumber");
  return serial != nullptr && serial->is_string() ? serial->as_string() : std::string{};
}

bool PawsServer::IsRegistered(const std::string& serial) const {
  if (serial.empty()) return false;
  return std::find(registered_.begin(), registered_.end(), serial) != registered_.end();
}

std::vector<int> PawsServer::ReportedUse(const std::string& serial) const {
  for (const auto& [s, channels] : reported_use_) {
    if (s == serial) return channels;
  }
  return {};
}

json::Value PawsServer::HandleInit(const Value& params) {
  const std::string serial = SerialOf(params);
  if (!serial.empty() && !IsRegistered(serial)) registered_.push_back(serial);
  Value result;
  result["type"] = "INIT_RESP";
  result["version"] = kPawsVersion;
  Value ruleset;
  ruleset["authority"] = RulesetFor(db_.config().regulatory);
  ruleset["maxLocationChange"] = 100;
  ruleset["maxPollingSecs"] = 86400;
  result["rulesetInfos"] = Array{ruleset};
  return result;
}

json::Value PawsServer::HandleGetSpectrum(const Value& params, SimTime now) const {
  const Value* loc_json = params.Find("location");
  if (loc_json == nullptr) return Value(nullptr);
  const auto loc = GeoLocationFromJson(*loc_json);
  if (!loc) return Value(nullptr);

  bool master = true;
  if (const Value* rt = params.Find("requestType");
      rt != nullptr && rt->is_string() && rt->as_string() == "SLAVE_DEVICE") {
    master = false;
  }

  Value result;
  result["type"] = "AVAIL_SPECTRUM_RESP";
  result["version"] = kPawsVersion;
  result["rulesetInfo"]["authority"] = RulesetFor(db_.config().regulatory);

  Array schedules;
  for (const ChannelAvailability& a : db_.Query(*loc, now, master)) {
    Value sched;
    sched["eventTime"]["startTimeNs"] = static_cast<std::int64_t>(a.lease_start);
    sched["eventTime"]["stopTimeNs"] = static_cast<std::int64_t>(a.lease_expiry);
    Value profile;
    profile["hz"] = a.channel.CentreFrequencyHz();
    profile["dbm"] = a.max_eirp_dbm;
    profile["channelNumber"] = a.channel.number;
    Value spectrum;
    spectrum["resolutionBwHz"] = TvChannelWidthHz(a.channel.regulatory);
    spectrum["profiles"] = Array{profile};
    sched["spectra"] = Array{spectrum};
    schedules.push_back(sched);
  }
  result["spectrumSchedules"] = std::move(schedules);
  return result;
}

json::Value PawsServer::HandleNotify(const Value& params) {
  // Record which channels the device reports using (audit trail).
  const std::string serial = SerialOf(params);
  std::vector<int> channels;
  if (const Value* spectra = params.Find("spectra");
      spectra != nullptr && spectra->is_array()) {
    for (const Value& spectrum : spectra->as_array()) {
      const Value* profiles = spectrum.Find("profiles");
      if (profiles == nullptr || !profiles->is_array()) continue;
      for (const Value& profile : profiles->as_array()) {
        if (const Value* hz = profile.Find("hz"); hz != nullptr && hz->is_number()) {
          // Recover the channel number from the centre frequency.
          const double f = hz->as_number();
          const double width = TvChannelWidthHz(db_.config().regulatory);
          const int first = db_.config().first_channel;
          const TvChannel ref{.number = first, .regulatory = db_.config().regulatory};
          channels.push_back(
              first + static_cast<int>(std::lround((f - ref.CentreFrequencyHz()) / width)));
        }
      }
    }
  }
  bool updated = false;
  for (auto& [s, chs] : reported_use_) {
    if (s == serial) {
      chs = channels;
      updated = true;
      break;
    }
  }
  if (!updated && !serial.empty()) reported_use_.emplace_back(serial, channels);

  Value result;
  result["type"] = "SPECTRUM_USE_NOTIFY_RESP";
  result["version"] = kPawsVersion;
  return result;
}

}  // namespace cellfi::tvws
