#include "cellfi/chaos/fault_plan.h"

#include <algorithm>
#include <limits>
#include <tuple>

namespace cellfi::chaos {

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Times serialize as integer microseconds (the trace convention); the
/// sub-microsecond remainder of a SimTime is never used by fault plans.
std::int64_t ToUs(SimTime t) { return t / kMicrosecond; }
SimTime FromUs(std::int64_t us) { return us * kMicrosecond; }

bool ReadTimeUs(const json::Value& obj, const std::string& key, SimTime* out) {
  if (const json::Value* v = obj.Find(key)) {
    // Whole, non-negative microseconds whose nanosecond value fits SimTime.
    const auto us = v->as_integer<std::int64_t>();
    if (!us || *us < 0 || *us > std::numeric_limits<SimTime>::max() / kMicrosecond) {
      return false;
    }
    *out = FromUs(*us);
  }
  return true;
}

bool ReadProbability(const json::Value& obj, const std::string& key, double* out) {
  if (const json::Value* v = obj.Find(key)) {
    if (!v->is_number() || v->as_number() < 0.0 || v->as_number() > 1.0) return false;
    *out = v->as_number();
  }
  return true;
}

bool ReadInt(const json::Value& obj, const std::string& key, int* out) {
  if (const json::Value* v = obj.Find(key)) {
    const auto i = v->as_integer<int>();
    if (!i) return false;
    *out = *i;
  }
  return true;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kApCrash: return "ap_crash";
    case FaultKind::kDbOutage: return "db_outage";
    case FaultKind::kDbBrownout: return "db_brownout";
    case FaultKind::kIncumbentArrive: return "incumbent_arrive";
    case FaultKind::kIncumbentDepart: return "incumbent_depart";
    case FaultKind::kLoadShock: return "load_shock";
  }
  return "unknown";
}

std::optional<FaultKind> FaultKindFromName(const std::string& name) {
  for (FaultKind kind :
       {FaultKind::kApCrash, FaultKind::kDbOutage, FaultKind::kDbBrownout,
        FaultKind::kIncumbentArrive, FaultKind::kIncumbentDepart,
        FaultKind::kLoadShock}) {
    if (name == FaultKindName(kind)) return kind;
  }
  return std::nullopt;
}

std::vector<FaultEvent> FaultPlan::EventsOfKind(FaultKind kind) const {
  std::vector<FaultEvent> out;
  for (const FaultEvent& e : events) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

FaultPlan FaultPlan::Normalized() const {
  FaultPlan plan = *this;
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return std::tuple(a.time, static_cast<int>(a.kind), a.target,
                                       a.channel) <
                            std::tuple(b.time, static_cast<int>(b.kind), b.target,
                                       b.channel);
                   });
  return plan;
}

json::Value FaultPlan::ToJson() const {
  json::Value doc;
  doc["name"] = name;
  // The seed is emitted as a decimal string: JSON numbers are doubles and
  // cannot hold every 64-bit seed exactly.
  doc["seed"] = std::to_string(seed);
  json::Value link_v;
  link_v["latency_base_us"] = ToUs(link.latency_base);
  link_v["latency_jitter_us"] = ToUs(link.latency_jitter);
  link_v["drop_probability"] = link.drop_probability;
  link_v["corrupt_probability"] = link.corrupt_probability;
  link_v["error_probability"] = link.error_probability;
  link_v["wrong_id_probability"] = link.wrong_id_probability;
  doc["link"] = link_v;
  json::Array events_v;
  for (const FaultEvent& e : events) {
    json::Value ev;
    ev["kind"] = FaultKindName(e.kind);
    ev["t_us"] = ToUs(e.time);
    if (e.duration != 0) ev["duration_us"] = ToUs(e.duration);
    if (e.target != -1) ev["target"] = e.target;
    if (e.channel != -1) ev["channel"] = e.channel;
    if (e.magnitude != 0.0) ev["magnitude"] = e.magnitude;
    if (e.latency != 0) ev["latency_us"] = ToUs(e.latency);
    events_v.push_back(std::move(ev));
  }
  doc["events"] = std::move(events_v);
  return doc;
}

std::string FaultPlan::ToJsonText() const { return ToJson().Dump(); }

std::optional<FaultPlan> FaultPlan::FromJson(const json::Value& value) {
  if (!value.is_object()) return std::nullopt;
  FaultPlan plan;
  if (const json::Value* name = value.Find("name")) {
    if (!name->is_string()) return std::nullopt;
    plan.name = name->as_string();
  }
  if (const json::Value* seed = value.Find("seed")) {
    const auto n = seed->is_string() ? seed->as_decimal_u64()
                                     : seed->as_integer<std::uint64_t>();
    if (!n) return std::nullopt;
    plan.seed = *n;
  }
  if (const json::Value* link = value.Find("link")) {
    if (!link->is_object()) return std::nullopt;
    if (!ReadTimeUs(*link, "latency_base_us", &plan.link.latency_base) ||
        !ReadTimeUs(*link, "latency_jitter_us", &plan.link.latency_jitter) ||
        !ReadProbability(*link, "drop_probability", &plan.link.drop_probability) ||
        !ReadProbability(*link, "corrupt_probability", &plan.link.corrupt_probability) ||
        !ReadProbability(*link, "error_probability", &plan.link.error_probability) ||
        !ReadProbability(*link, "wrong_id_probability",
                         &plan.link.wrong_id_probability)) {
      return std::nullopt;
    }
  }
  if (const json::Value* events = value.Find("events")) {
    if (!events->is_array()) return std::nullopt;
    for (const json::Value& ev : events->as_array()) {
      if (!ev.is_object()) return std::nullopt;
      const json::Value* kind = ev.Find("kind");
      if (kind == nullptr || !kind->is_string()) return std::nullopt;
      const auto parsed_kind = FaultKindFromName(kind->as_string());
      if (!parsed_kind) return std::nullopt;
      FaultEvent e;
      e.kind = *parsed_kind;
      if (!ReadTimeUs(ev, "t_us", &e.time) ||
          !ReadTimeUs(ev, "duration_us", &e.duration) ||
          !ReadTimeUs(ev, "latency_us", &e.latency) ||
          !ReadInt(ev, "target", &e.target) || !ReadInt(ev, "channel", &e.channel)) {
        return std::nullopt;
      }
      if (const json::Value* mag = ev.Find("magnitude")) {
        if (!mag->is_number() || mag->as_number() < 0.0) return std::nullopt;
        e.magnitude = mag->as_number();
      }
      plan.events.push_back(e);
    }
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::FromJsonText(const std::string& text) {
  const auto parsed = json::Parse(text);
  if (!parsed) return std::nullopt;
  return FromJson(*parsed);
}

std::uint64_t TransportSeed(const FaultPlan& plan, int ap) {
  std::uint64_t h = SplitMix64(plan.seed);
  return SplitMix64(h ^ static_cast<std::uint64_t>(ap + 1));
}

tvws::FaultProfile LinkProfileFor(const FaultPlan& plan, int ap) {
  tvws::FaultProfile profile = plan.link;
  profile.seed = TransportSeed(plan, ap);
  return profile;
}

void ApplyDbWindows(const FaultPlan& plan, tvws::FaultyTransport& transport) {
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultKind::kDbOutage) {
      transport.AddOutage(e.time, e.time + e.duration);
    } else if (e.kind == FaultKind::kDbBrownout) {
      transport.AddBrownout({.start = e.time,
                             .stop = e.time + e.duration,
                             .extra_latency = e.latency,
                             .extra_drop_probability = e.magnitude});
    }
  }
}

FaultPlan ThunderingHerdPlan(int num_aps, SimTime crash_time) {
  FaultPlan plan;
  plan.name = "thundering_herd";
  for (int ap = 0; ap < num_aps; ++ap) {
    plan.events.push_back(
        {.kind = FaultKind::kApCrash, .time = crash_time, .target = ap});
  }
  return plan;
}

FaultPlan IncumbentChurnPlan(const std::vector<int>& channels, SimTime start,
                             SimTime stagger, SimTime dwell) {
  FaultPlan plan;
  plan.name = "incumbent_churn";
  SimTime t = start;
  for (int channel : channels) {
    plan.events.push_back({.kind = FaultKind::kIncumbentArrive,
                           .time = t,
                           .duration = dwell,
                           .channel = channel});
    t += stagger;
  }
  return plan;
}

FaultPlan BrownoutPlan(SimTime brownout_start, SimTime brownout_duration,
                       SimTime extra_latency, double drop_probability,
                       SimTime outage_start, SimTime outage_duration) {
  FaultPlan plan;
  plan.name = "brownout_then_outage";
  plan.events.push_back({.kind = FaultKind::kDbBrownout,
                         .time = brownout_start,
                         .duration = brownout_duration,
                         .magnitude = drop_probability,
                         .latency = extra_latency});
  plan.events.push_back({.kind = FaultKind::kDbOutage,
                         .time = outage_start,
                         .duration = outage_duration});
  return plan;
}

}  // namespace cellfi::chaos
