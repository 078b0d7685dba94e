// Micro-benchmarks (google-benchmark) for the performance-critical library
// primitives: FFT/DFT, PRACH detection, SINR aggregation, scheduler and
// interference-manager epochs, CQI interference detection, JSON parsing for
// PAWS.
#include <benchmark/benchmark.h>

#include "cellfi/chaos/invariants.h"
#include "cellfi/common/fft.h"
#include "cellfi/common/json.h"
#include "cellfi/common/simd.h"
#include "cellfi/core/cqi_detector.h"
#include "cellfi/core/interference_manager.h"
#include "cellfi/lte/enodeb.h"
#include "cellfi/phy/cqi_mcs.h"
#include "cellfi/phy/ofdm.h"
#include "cellfi/phy/prach.h"
#include "cellfi/radio/environment.h"
#include "cellfi/radio/fading.h"
#include "cellfi/radio/interference.h"
#include "cellfi/radio/pathloss.h"

using namespace cellfi;

namespace {

// RAII force-scalar toggle for the in-binary SIMD-vs-scalar A/B pairs
// below. google-benchmark runs registrations sequentially in one thread,
// which is exactly the single-threaded regime simd::ForceScalar requires.
struct ScopedForceScalar {
  explicit ScopedForceScalar(bool force) : prev(simd::ForceScalar(force)) {}
  ~ScopedForceScalar() { simd::ForceScalar(prev); }
  bool prev;
};

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<Complex> data(n);
  for (auto& v : data) v = Complex(rng.Normal(), rng.Normal());
  for (auto _ : state) {
    auto copy = data;
    Fft(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096);

// Same transform pinned to the scalar reference kernels — the denominator
// of the DftInto/Fft speedup claims in EXPERIMENTS.md. Results are
// bit-identical to BM_Fft (DESIGN.md §17 contract); only the time differs.
void BM_FftScalar(benchmark::State& state) {
  ScopedForceScalar scalar_only(true);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<Complex> data(n);
  for (auto& v : data) v = Complex(rng.Normal(), rng.Normal());
  for (auto _ : state) {
    auto copy = data;
    Fft(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftScalar)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BluesteinDft839(benchmark::State& state) {
  Rng rng(2);
  std::vector<Complex> data(839);
  for (auto& v : data) v = Complex(rng.Normal(), rng.Normal());
  for (auto _ : state) {
    auto out = Dft(data);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BluesteinDft839);

void BM_BluesteinDftInto839(benchmark::State& state) {
  Rng rng(2);
  std::vector<Complex> data(839);
  for (auto& v : data) v = Complex(rng.Normal(), rng.Normal());
  DftWorkspace ws;
  std::vector<Complex> out;
  for (auto _ : state) {
    DftInto(data, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BluesteinDftInto839);

void BM_BluesteinDftInto839Scalar(benchmark::State& state) {
  ScopedForceScalar scalar_only(true);
  Rng rng(2);
  std::vector<Complex> data(839);
  for (auto& v : data) v = Complex(rng.Normal(), rng.Normal());
  DftWorkspace ws;
  std::vector<Complex> out;
  for (auto _ : state) {
    DftInto(data, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BluesteinDftInto839Scalar);

void BM_OfdmModulate(benchmark::State& state) {
  OfdmParams params;
  Rng rng(7);
  std::vector<Complex> subcarriers(params.used_subcarriers);
  for (auto& v : subcarriers) v = Complex(rng.Normal(), rng.Normal());
  for (auto _ : state) {
    auto symbol = OfdmModulate(params, subcarriers);
    benchmark::DoNotOptimize(symbol.data());
  }
}
BENCHMARK(BM_OfdmModulate);

void BM_OfdmModulateScratch(benchmark::State& state) {
  OfdmParams params;
  Rng rng(7);
  std::vector<Complex> subcarriers(params.used_subcarriers);
  for (auto& v : subcarriers) v = Complex(rng.Normal(), rng.Normal());
  std::vector<Complex> symbol, bins;
  for (auto _ : state) {
    OfdmModulate(params, subcarriers, symbol, bins);
    benchmark::DoNotOptimize(symbol.data());
  }
}
BENCHMARK(BM_OfdmModulateScratch);

void BM_PrachDetect(benchmark::State& state) {
  PrachConfig cfg;
  PrachDetector detector(cfg);
  Rng rng(3);
  const auto rx = PassThroughAwgn(GeneratePreamble(cfg, 17), 5, -10.0, rng);
  for (auto _ : state) {
    auto det = detector.Detect(rx);
    benchmark::DoNotOptimize(&det);
  }
}
BENCHMARK(BM_PrachDetect);

// Multi-preamble search, K root sequences over one received window:
// K independent PrachDetector::DetectAll calls (K forward DFTs of the
// same signal) vs one PrachDetectorBank::DetectAll (one forward DFT,
// K spectrum-multiplies + inverse DFTs). Detections are bit-identical;
// the bank amortizes the forward transform.
std::vector<int> BenchPrachRoots(int k) {
  std::vector<int> roots;
  for (int i = 0; i < k; ++i) roots.push_back(17 + 6 * i);
  return roots;
}

void BM_PrachDetectAllPerDetector(benchmark::State& state) {
  PrachConfig cfg;
  const auto roots = BenchPrachRoots(static_cast<int>(state.range(0)));
  std::vector<PrachDetector> detectors;
  for (int r : roots) {
    PrachConfig c = cfg;
    c.root = r;
    detectors.emplace_back(c);
  }
  Rng rng(3);
  const auto rx = PassThroughAwgn(GeneratePreamble(cfg, 17), 5, -10.0, rng);
  for (auto _ : state) {
    for (auto& d : detectors) {
      auto det = d.DetectAll(rx);
      benchmark::DoNotOptimize(&det);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(roots.size()));
}
BENCHMARK(BM_PrachDetectAllPerDetector)->Arg(4)->Arg(8);

void BM_PrachDetectAllBank(benchmark::State& state) {
  PrachConfig cfg;
  const auto roots = BenchPrachRoots(static_cast<int>(state.range(0)));
  PrachDetectorBank bank(cfg, roots);
  Rng rng(3);
  const auto rx = PassThroughAwgn(GeneratePreamble(cfg, 17), 5, -10.0, rng);
  for (auto _ : state) {
    auto det = bank.DetectAll(rx);
    benchmark::DoNotOptimize(&det);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(roots.size()));
}
BENCHMARK(BM_PrachDetectAllBank)->Arg(4)->Arg(8);

void BM_FadingPowerGain(benchmark::State& state) {
  // One uncached fading gain (four SplitMix64 rounds and a log): what
  // SinrDb paid per term before the fading-gain cache, and what it still
  // pays once per (tx, subchannel, coherence block).
  const FadingProcess fading(9);
  SimTime now = 0;
  std::uint32_t s = 0;
  for (auto _ : state) {
    now += kMillisecond;
    s = (s + 1) % 13;
    benchmark::DoNotOptimize(fading.PowerGain(1, 2, s, now));
  }
}
BENCHMARK(BM_FadingPowerGain);

// Per-link fading-on SINR over `range(0)` interferers, `now` advancing by
// `step` per query.
void SinrAggregation(benchmark::State& state, SimTime step) {
  static HataUrbanPathLoss pathloss;
  RadioEnvironmentConfig cfg;
  cfg.enable_fading = true;
  RadioEnvironment env(pathloss, cfg);
  Rng rng(4);
  std::vector<ActiveTransmitter> interferers;
  const RadioNodeId rx = env.AddNode({.position = {0, 0}});
  const RadioNodeId tx = env.AddNode({.position = {200, 0}, .tx_power_dbm = 30});
  for (int i = 0; i < state.range(0); ++i) {
    interferers.push_back({env.AddNode({.position = {rng.Uniform(-2000, 2000),
                                                     rng.Uniform(-2000, 2000)},
                                        .tx_power_dbm = 30}),
                           1.0 / 13.0});
  }
  SimTime now = 0;
  for (auto _ : state) {
    now += step;
    benchmark::DoNotOptimize(env.SinrDb(tx, rx, 3, now, interferers, 360e3, 1.0 / 13.0));
  }
}

void BM_SinrAggregation(benchmark::State& state) {
  // 1 ms steps: 49 of every 50 queries stay in the 50 ms coherence block
  // of the one before, so almost every fading gain is a cache hit.
  SinrAggregation(state, kMillisecond);
}
BENCHMARK(BM_SinrAggregation)->Arg(4)->Arg(14)->Arg(50);

void BM_SinrAggregationBlockBoundary(benchmark::State& state) {
  // One full coherence time per query: every query opens a new block, so
  // every fading gain misses the cache and is recomputed.
  SinrAggregation(state, RadioEnvironmentConfig{}.fading_coherence_time);
}
BENCHMARK(BM_SinrAggregationBlockBoundary)->Arg(4)->Arg(14)->Arg(50);

// Shared setup for the interference-engine kernels: `n` cells all
// transmitting full-band (13 subchannels, flat PSD) and one receiver,
// no fading — the regime where the engine's aggregate cache pays.
struct EngineBenchWorld {
  explicit EngineBenchWorld(int n, bool fading = false)
      : env(pathloss, Config(fading)), imap(env) {
    Rng rng(6);
    rx = env.AddNode({.position = {0, 0}});
    tx = env.AddNode({.position = {200, 0}, .tx_power_dbm = 30});
    for (int i = 0; i < n; ++i) {
      cells.push_back(env.AddNode({.position = {rng.Uniform(-2000, 2000),
                                                rng.Uniform(-2000, 2000)},
                                   .tx_power_dbm = 30}));
    }
  }
  static RadioEnvironmentConfig Config(bool fading) {
    RadioEnvironmentConfig cfg;
    cfg.enable_fading = fading;
    return cfg;
  }
  /// One epoch's lists; `first_scale` is the first cell's power scale.
  void Populate(double first_scale = 1.0 / 13.0) {
    imap.BeginEpoch(13, 360e3);
    for (RadioNodeId c : cells) {
      const double scale = c == cells.front() ? first_scale : 1.0 / 13.0;
      for (int s = 0; s < 13; ++s) imap.AddTransmitter(s, c, scale);
    }
  }
  static HataUrbanPathLoss pathloss;
  RadioEnvironment env;
  InterferenceMap imap;
  RadioNodeId rx = 0;
  RadioNodeId tx = 0;
  std::vector<RadioNodeId> cells;
};
HataUrbanPathLoss EngineBenchWorld::pathloss;

void BM_InterferenceMapBuild(benchmark::State& state) {
  EngineBenchWorld w(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    w.Populate();
    benchmark::DoNotOptimize(w.imap.num_subchannels());
  }
}
BENCHMARK(BM_InterferenceMapBuild)->Arg(4)->Arg(16)->Arg(64);

void BM_InterferenceMapSinrLookup(benchmark::State& state) {
  // Steady state of the fading-off fast path: the epoch's aggregate rows
  // are already built, each query is a cache hit. All 13 subchannel lists
  // are identical, so they share one aggregate (num_groups() == 1).
  EngineBenchWorld w(static_cast<int>(state.range(0)));
  w.Populate();
  SimTime now = 0;
  int s = 0;
  for (auto _ : state) {
    now += kMillisecond;
    s = (s + 1) % 13;
    benchmark::DoNotOptimize(w.imap.SinrDb(w.tx, w.rx, s, now, 1.0 / 13.0));
  }
}
BENCHMARK(BM_InterferenceMapSinrLookup)->Arg(4)->Arg(16)->Arg(64);

// One subframe of a UE's CQI measurement: rebuild the lists, seal, and
// query all 13 subchannels. Every iteration repeats the same lists, so the
// epoch and the receiver's SINR row survive: no aggregation, no log10.
void BM_InterferenceMapRepeatEpoch(benchmark::State& state) {
  EngineBenchWorld w(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    w.Populate();
    w.imap.Seal();
    for (int s = 0; s < 13; ++s) {
      benchmark::DoNotOptimize(w.imap.SinrDb(w.tx, w.rx, s, 0, 1.0 / 13.0));
    }
  }
}
BENCHMARK(BM_InterferenceMapRepeatEpoch)->Arg(4)->Arg(16)->Arg(64);

// Counterpart of BM_InterferenceMapRepeatEpoch: the first cell's power
// scale toggles every iteration (on all 13 lists, which stay one group),
// so Seal advances the epoch and the row is rebuilt — one aggregation and
// one log10. The gap between the two is what row reuse saves.
void BM_InterferenceMapChangedEpoch(benchmark::State& state) {
  EngineBenchWorld w(static_cast<int>(state.range(0)));
  bool toggle = false;
  for (auto _ : state) {
    toggle = !toggle;
    w.Populate(toggle ? 1.0 / 26.0 : 1.0 / 13.0);
    w.imap.Seal();
    for (int s = 0; s < 13; ++s) {
      benchmark::DoNotOptimize(w.imap.SinrDb(w.tx, w.rx, s, 0, 1.0 / 13.0));
    }
  }
}
BENCHMARK(BM_InterferenceMapChangedEpoch)->Arg(4)->Arg(16)->Arg(64);

void BM_SinrPerLinkLegacy(benchmark::State& state) {
  // What the engine replaces: rebuild the interferer vector and pay the
  // per-link summation on every query (the legacy subframe inner loop).
  EngineBenchWorld w(static_cast<int>(state.range(0)));
  std::vector<ActiveTransmitter> interferers;
  SimTime now = 0;
  int s = 0;
  for (auto _ : state) {
    now += kMillisecond;
    s = (s + 1) % 13;
    interferers.clear();
    for (RadioNodeId c : w.cells) {
      interferers.push_back(ActiveTransmitter{.node = c, .power_scale = 1.0 / 13.0});
    }
    benchmark::DoNotOptimize(w.env.SinrDb(w.tx, w.rx, static_cast<std::uint32_t>(s), now,
                                          interferers, 360e3, 1.0 / 13.0));
  }
}
BENCHMARK(BM_SinrPerLinkLegacy)->Arg(4)->Arg(16)->Arg(64);

void BM_ShardBarrierMerge(benchmark::State& state) {
  // The serial section at the uplink subframe barrier: per-shard staged
  // transmitter plans merged into the InterferenceMap in global
  // cell-index order (never completion order), then sealed. This is the
  // Amdahl floor of the shard layer — everything else in the subframe
  // runs on the pool.
  const int n = static_cast<int>(state.range(0));
  EngineBenchWorld w(n);
  // Staged plan per cell, as the parallel plan phase leaves it: every
  // cell transmits on all 13 subchannels at flat PSD.
  struct StagedTx {
    int subchannel;
    double power_scale;
  };
  std::vector<std::vector<StagedTx>> staged(static_cast<std::size_t>(n));
  for (auto& plan : staged) {
    for (int s = 0; s < 13; ++s) plan.push_back({s, 1.0 / 13.0});
  }
  for (auto _ : state) {
    w.imap.BeginEpoch(13, 360e3);
    for (int c = 0; c < n; ++c) {
      for (const StagedTx& t : staged[static_cast<std::size_t>(c)]) {
        w.imap.AddTransmitter(t.subchannel, w.cells[static_cast<std::size_t>(c)],
                              t.power_scale);
      }
    }
    w.imap.Seal();
    benchmark::DoNotOptimize(w.imap.num_subchannels());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * 13);
}
BENCHMARK(BM_ShardBarrierMerge)->Arg(16)->Arg(64)->Arg(256);

void BM_SchedulerSubframe(benchmark::State& state) {
  lte::LteMacConfig mac;
  lte::EnodeB enb(0, mac);
  Rng rng(5);
  for (int u = 0; u < state.range(0); ++u) {
    auto& ue = enb.AddUe(u);
    ue.EnqueueDownlink(1 << 20);
    std::vector<int> cqi(13);
    for (auto& c : cqi) c = static_cast<int>(rng.UniformInt(3, 15));
    ue.UpdateCqi(10, cqi);
  }
  for (auto _ : state) {
    auto plan = enb.PlanDownlink();
    benchmark::DoNotOptimize(&plan);
  }
}
BENCHMARK(BM_SchedulerSubframe)->Arg(2)->Arg(6)->Arg(16);

void BM_InterferenceManagerEpoch(benchmark::State& state) {
  core::InterferenceManagerConfig cfg;
  core::InterferenceManager im(cfg, 6);
  core::EpochInputs in;
  in.own_active_clients = 6;
  in.estimated_contenders = 12;
  in.utility.assign(13, 1.0);
  in.interference_pressure.assign(13, 0.1);
  in.free_for_reuse.assign(13, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&im.OnEpoch(in));
  }
}
BENCHMARK(BM_InterferenceManagerEpoch);

// One client's detector at the paper's sizes (13 sub-bands, 500-sample
// window) fed a seeded stream of in-range CQI reports: the cost
// CellfiController pays per on_cqi_report.
void BM_CqiDetectorAddReport(benchmark::State& state) {
  constexpr int kSubbands = 13;
  Rng rng(3);
  std::vector<std::vector<int>> reports(1024, std::vector<int>(kSubbands));
  for (auto& report : reports) {
    for (int& cqi : report) cqi = static_cast<int>(rng.UniformInt(0, kMaxCqi));
  }
  core::CqiDetectorConfig cfg;
  cfg.max_window = 500;
  core::CqiInterferenceDetector det(kSubbands, cfg);
  std::size_t i = 0;
  for (auto _ : state) {
    det.AddReport(reports[i]);
    i = (i + 1) % reports.size();
    benchmark::DoNotOptimize(det.LowStreak(0));
  }
}
BENCHMARK(BM_CqiDetectorAddReport);

void BM_PawsJsonRoundTrip(benchmark::State& state) {
  json::Value v;
  v["jsonrpc"] = "2.0";
  v["method"] = "spectrum.paws.getSpectrum";
  v["params"]["deviceDesc"]["serialNumber"] = "cellfi-ap-001";
  v["params"]["location"]["point"]["center"]["latitude"] = 47.64;
  v["params"]["location"]["point"]["center"]["longitude"] = -122.13;
  v["id"] = 17;
  const std::string body = v.Dump();
  for (auto _ : state) {
    auto parsed = json::Parse(body);
    benchmark::DoNotOptimize(&parsed);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_PawsJsonRoundTrip);

// Cost of an invariant check site with NO checker scoped in: one
// thread-local load and branch (the instrumented hot paths — scheduler
// subframes, controller epochs — pay exactly this when chaos is off).
void BM_InvariantGuardDisabled(benchmark::State& state) {
  std::uint64_t sink = 0;
  for (auto _ : state) {
    if (chaos::InvariantChecker* ic = chaos::ActiveChecker()) {
      ic->CheckPrbGrant(0, 1, 25, 0);
      ++sink;
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_InvariantGuardDisabled);

// Same site with a live checker: the enabled path's full cost, for
// contrast against the disabled guard above.
void BM_InvariantGuardEnabled(benchmark::State& state) {
  chaos::InvariantChecker checker;
  chaos::InvariantScope scope(&checker);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    if (chaos::InvariantChecker* ic = chaos::ActiveChecker()) {
      ic->CheckPrbGrant(0, 1, 25, 0);
      ++sink;
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_InvariantGuardEnabled);

}  // namespace

BENCHMARK_MAIN();
