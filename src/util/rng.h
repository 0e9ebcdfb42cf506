// Deterministic random number generation for Monte-Carlo studies.
//
// Reproducibility rule: every stochastic experiment takes an explicit seed,
// and named child streams derived from one master seed stay independent of
// the order in which modules draw from them.
//
// Engine.  util::Rng is a counter-based generator (the design of Salmon et
// al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11) built on
// SplitMix64: a stream keyed s emits, as its output j = 0, 1, 2, ...,
//
//     finalize(s + (j + 1) * gamma),   gamma = 0x9e3779b97f4a7c15,
//
// where finalize is the SplitMix64 output mixer.  The state is the key
// plus a Weyl counter — two words — so a fresh per-sample substream costs
// three mixer calls to key and nothing to seed.
//
// Stream independence.  Every stream walks the same 2^64-periodic Weyl
// sequence s + j*gamma; keys are mix64-hashed, so streams start at
// pseudo-random points of it.  Two streams keyed a and b share an output
// only if a - b = m*gamma (mod 2^64) with |m| below their draw count:
// for 10^7 substreams of 10 draws each (5*10^13 pairs, each hit with
// probability 20 / 2^64) that is about 5*10^-5.  Consecutive outputs of
// one stream are decorrelated by the finalizer (SplitMix64 passes
// BigCrush).
//
// Transforms.  The repo owns every transform, so no std::*_distribution
// (whose algorithms are implementation-defined) is involved:
//   - canonical double in [0, 1): the top 53 bits times 2^-53;
//   - normal: the Marsaglia polar method, one cached spare per pair;
//   - truncated_normal: rejection on normal();
//   - uniform(lo, hi): half-open, never returns hi;
//   - index(n): unbiased rejection on the 64-bit output.
// The integer sequence is fully specified here.  The one remaining
// platform dependence of the doubles is libm's std::log (and std::sqrt,
// which IEEE 754 rounds exactly) inside the polar method.
#ifndef MPSRAM_UTIL_RNG_H
#define MPSRAM_UTIL_RNG_H

#include <cstdint>
#include <string_view>

namespace mpsram::util {

/// The SplitMix64 increment: gamma, the odd integer nearest 2^64 / phi.
inline constexpr std::uint64_t splitmix64_gamma = 0x9e3779b97f4a7c15ULL;

/// The SplitMix64 output mixer (finalizer) of one 64-bit word.
constexpr std::uint64_t splitmix64_finalize(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Seedable random stream with the distribution helpers the variability
/// models need (see the file comment for the engine and transforms).
class Rng {
public:
    explicit Rng(std::uint64_t seed) : seed_(seed), weyl_(seed) {}

    /// Derive an independent child stream from this stream's seed and a
    /// name.  The name is hashed with FNV-1a (util/hash.h), so the child
    /// key depends only on this repo, never on the standard library.
    Rng child(std::string_view name) const;

    /// Counter-based substream: the stream for element `index` of the
    /// experiment rooted at `seed`.  Depends only on (seed, index) — not
    /// on how many draws any other substream made — so a loop that gives
    /// sample i the stream `Rng::stream(seed, i)` produces bitwise
    /// identical results at any thread count and in any execution order.
    static Rng stream(std::uint64_t seed, std::uint64_t index);

    /// Next 64-bit output: SplitMix64 of the key at the next counter.
    std::uint64_t next_u64()
    {
        weyl_ += splitmix64_gamma;
        return splitmix64_finalize(weyl_);
    }

    /// Uniform double in [0, 1): the top 53 output bits times 2^-53.
    double canonical()
    {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /// Standard normal draw (mean 0, sigma 1).
    double normal();

    /// Normal draw with given mean and sigma (sigma >= 0).
    double normal(double mean, double sigma);

    /// Normal draw truncated to [mean - k*sigma, mean + k*sigma] by
    /// rejection; models bounded process variation (a fab screens outliers).
    double truncated_normal(double mean, double sigma, double k);

    /// Uniform draw in [lo, hi); never returns hi, even where
    /// lo + (hi - lo) * u would round up to it.
    double uniform(double lo, double hi);

    /// Uniform integer in [0, n), unbiased.
    std::uint64_t index(std::uint64_t n);

    std::uint64_t seed() const { return seed_; }

private:
    std::uint64_t seed_ = 0;  ///< the stream key
    std::uint64_t weyl_ = 0;  ///< key + draws * gamma: the counter
    double spare_ = 0.0;      ///< second normal of the last polar pair
    bool has_spare_ = false;
};

} // namespace mpsram::util

#endif // MPSRAM_UTIL_RNG_H
