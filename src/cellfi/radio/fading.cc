#include "cellfi/radio/fading.h"

#include <algorithm>
#include <cmath>

namespace cellfi {

namespace {
// cellfi-purity: allow(draws_rng) — stateless mixing step: a pure function
// of its argument with no stream state, the DESIGN.md §13 sanctioned
// alternative to Rng inside parallel phases.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
}  // namespace

std::uint64_t HashWords(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                        std::uint64_t d) {
  // cellfi-purity: allow(draws_rng) — keyed purely by the four input words.
  std::uint64_t h = SplitMix64(a);
  h = SplitMix64(h ^ b);
  h = SplitMix64(h ^ c);
  h = SplitMix64(h ^ d);
  return h;
}

double HashToUnitInterval(std::uint64_t h) {
  // Use the top 53 bits; offset by half an ulp so the result is never 0.
  return (static_cast<double>(h >> 11) + 0.5) * (1.0 / 9007199254740992.0);
}

double HashToStandardNormal(std::uint64_t h) {
  // cellfi-purity: allow(draws_rng) — Box–Muller over hash-derived uniforms;
  // deterministic per input hash.
  const double u1 = HashToUnitInterval(SplitMix64(h));
  const double u2 = HashToUnitInterval(SplitMix64(h ^ 0xA5A5A5A5A5A5A5A5ull));
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

ShadowingField::ShadowingField(std::uint64_t seed, double sigma_db)
    : seed_(seed), sigma_db_(sigma_db) {}

double ShadowingField::ShadowDb(std::uint32_t a, std::uint32_t b) const {
  const std::uint32_t lo = std::min(a, b);
  const std::uint32_t hi = std::max(a, b);
  return sigma_db_ * HashToStandardNormal(HashWords(seed_, lo, hi));
}

FadingProcess::FadingProcess(std::uint64_t seed, SimTime coherence_time, double rician_k)
    : seed_(seed), coherence_time_(coherence_time), rician_k_(rician_k) {}

double FadingProcess::PowerGainInBlock(std::uint32_t a, std::uint32_t b,
                                       std::uint32_t subchannel, std::int64_t block) const {
  const std::uint32_t lo = std::min(a, b);
  const std::uint32_t hi = std::max(a, b);
  const std::uint64_t h = HashWords(seed_, (static_cast<std::uint64_t>(lo) << 32) | hi,
                                    subchannel, static_cast<std::uint64_t>(block));
  if (rician_k_ <= 0.0) {
    // Exp(1) power gain: Rayleigh amplitude fading.
    return -std::log(HashToUnitInterval(h));
  }
  // Rician: h = sqrt(K/(K+1)) + sqrt(1/(2(K+1))) * (x + jy), x,y ~ N(0,1);
  // E[|h|^2] = 1.
  const double los = std::sqrt(rician_k_ / (rician_k_ + 1.0));
  const double sigma = std::sqrt(1.0 / (2.0 * (rician_k_ + 1.0)));
  const double x = HashToStandardNormal(h);
  const double y = HashToStandardNormal(HashWords(h, 0x5EED5EED5EED5EEDull));
  const double re = los + sigma * x;
  const double im = sigma * y;
  return re * re + im * im;
}

}  // namespace cellfi
