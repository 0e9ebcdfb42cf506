// Deterministic random number generation for Monte-Carlo studies.
//
// Reproducibility rule: every stochastic experiment takes an explicit seed,
// and named child streams derived from one master seed stay independent of
// the order in which modules draw from them.
#ifndef MPSRAM_UTIL_RNG_H
#define MPSRAM_UTIL_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace mpsram::util {

/// MT19937-64 with lazy seeding: the same output sequence as
/// std::mt19937_64 for every seed (standard parameters n=312, m=156,
/// r=31, seed multiplier 6364136223846793005), bit for bit.
///
/// std::mt19937_64 runs the whole 312-step seed recurrence at
/// construction and twists all 312 state words on the first draw.  A
/// Monte-Carlo substream draws a handful of outputs and is thrown away,
/// so that fixed cost dominates it.  Here output k < 156 of the first
/// generation twists word k in place as soon as it is asked for, which
/// needs seed words 0..k+156 only: the first k draws cost 156 + k seed
/// steps and k single-word twists.  Draw 156 finishes the seed and
/// twists words 156..311 (same order as the eager twist, so the words
/// are identical); from the second generation on every refill is the
/// ordinary full twist.
///
/// min()/max() span the full 64-bit range, exactly as std::mt19937_64,
/// so the std distributions consume the same outputs from either engine.
class Mt19937_64_lazy {
public:
    using result_type = std::uint64_t;

    static constexpr std::size_t state_size = 312;
    static constexpr std::size_t shift_size = 156;

    explicit Mt19937_64_lazy(result_type seed) { x_[0] = seed; }

    // x_ is left unwritten past seeded_ so a fresh stream pays for no
    // fill; copies carry only the defined prefix, so no indeterminate
    // word is ever read.
    Mt19937_64_lazy(const Mt19937_64_lazy& other) { *this = other; }
    Mt19937_64_lazy& operator=(const Mt19937_64_lazy& other);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()()
    {
        if (p_ >= ready_) refill();
        result_type z = x_[p_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

private:
    /// Make x_[p_] an output word of the current generation.
    void refill();
    /// Extend the seed recurrence so that words 0..count-1 are set.
    void seed_to(std::size_t count);
    /// Twist words [begin, end) of the state, in the eager order.
    void twist(std::size_t begin, std::size_t end);

    std::array<result_type, state_size> x_;  // defined on [0, seeded_)
    std::size_t p_ = 0;       // next output word
    std::size_t ready_ = 0;   // words [0, ready_) are twisted outputs
    std::size_t seeded_ = 1;  // seed words [0, seeded_) are set
};

/// Seedable random stream with the distribution helpers the variability
/// models need.  The engine is Mt19937_64_lazy, so every draw equals the
/// one the same std distribution makes from std::mt19937_64(seed), while
/// a fresh stream costs only the seed steps its draws reach (see above).
class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

    /// Derive an independent child stream from this stream's seed and a
    /// name.  Uses splitmix64-style mixing of the hashed name so children
    /// with different names are decorrelated.
    Rng child(std::string_view name) const;

    /// Counter-based substream: the stream for element `index` of the
    /// experiment rooted at `seed`.  Depends only on (seed, index) — not
    /// on how many draws any other substream made — so a loop that gives
    /// sample i the stream `Rng::stream(seed, i)` produces bitwise
    /// identical results at any thread count and in any execution order.
    /// Cheap to make per sample: Mt19937_64_lazy seeds only as far as the
    /// sample's draws reach.
    static Rng stream(std::uint64_t seed, std::uint64_t index);

    /// Standard normal draw (mean 0, sigma 1).
    double normal();

    /// Normal draw with given mean and sigma (sigma >= 0).
    double normal(double mean, double sigma);

    /// Normal draw truncated to [mean - k*sigma, mean + k*sigma] by
    /// rejection; models bounded process variation (a fab screens outliers).
    double truncated_normal(double mean, double sigma, double k);

    /// Uniform draw in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [0, n).
    std::uint64_t index(std::uint64_t n);

    std::uint64_t seed() const { return seed_; }

private:
    Mt19937_64_lazy engine_;
    std::uint64_t seed_ = 0;
    std::normal_distribution<double> std_normal_{0.0, 1.0};
};

} // namespace mpsram::util

#endif // MPSRAM_UTIL_RNG_H
