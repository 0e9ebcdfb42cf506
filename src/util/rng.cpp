#include "util/rng.h"

#include <algorithm>
#include <functional>

#include "util/contracts.h"

namespace mpsram::util {

namespace {

constexpr std::size_t mt_n = Mt19937_64_lazy::state_size;
constexpr std::size_t mt_m = Mt19937_64_lazy::shift_size;

/// The MT19937-64 twist of one word: the top 33 bits of `hi` joined to
/// the low 31 bits of `lo` (r = 31), shifted and conditionally xored
/// with the matrix constant a.
std::uint64_t twist_bits(std::uint64_t hi, std::uint64_t lo)
{
    constexpr std::uint64_t upper_mask = ~std::uint64_t{0} << 31;
    const std::uint64_t y = (hi & upper_mask) | (lo & ~upper_mask);
    return (y >> 1) ^ ((y & 1U) ? 0xb5026f5aa96619e9ULL : 0U);
}

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
std::uint64_t mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Mt19937_64_lazy& Mt19937_64_lazy::operator=(const Mt19937_64_lazy& other)
{
    if (this == &other) return *this;
    std::copy_n(other.x_.begin(), other.seeded_, x_.begin());
    p_ = other.p_;
    ready_ = other.ready_;
    seeded_ = other.seeded_;
    return *this;
}

void Mt19937_64_lazy::seed_to(std::size_t count)
{
    for (std::size_t i = seeded_; i < count; ++i) {
        const std::uint64_t prev = x_[i - 1];
        x_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
    seeded_ = std::max(seeded_, count);
}

void Mt19937_64_lazy::twist(std::size_t begin, std::size_t end)
{
    // The eager twist's three loops, restricted to [begin, end).  Words
    // k < n-m read x[k+m], which is still the seed word; later words read
    // the already-twisted x[k+m-n], and the last word the new x[0].
    for (std::size_t k = begin; k < std::min(end, mt_n - mt_m); ++k) {
        x_[k] = x_[k + mt_m] ^ twist_bits(x_[k], x_[k + 1]);
    }
    for (std::size_t k = std::max(begin, mt_n - mt_m);
         k < std::min(end, mt_n - 1); ++k) {
        x_[k] = x_[k + mt_m - mt_n] ^ twist_bits(x_[k], x_[k + 1]);
    }
    if (end == mt_n) {
        x_[mt_n - 1] = x_[mt_m - 1] ^ twist_bits(x_[mt_n - 1], x_[0]);
    }
}

void Mt19937_64_lazy::refill()
{
    if (p_ < mt_n - mt_m) {
        // First generation, lower half (ready_ only trails p_ here): word
        // p_ needs seed words up to p_ + m, and its neighbor p_ + 1 still
        // holds its seed value, exactly as in the eager twist.
        seed_to(p_ + mt_m + 1);
        twist(p_, p_ + 1);
        ready_ = p_ + 1;
    } else if (p_ < mt_n) {
        // First generation, upper half: finish the seed and twist the rest.
        seed_to(mt_n);
        twist(p_, mt_n);
        ready_ = mt_n;
    } else {
        twist(0, mt_n);
        p_ = 0;
        ready_ = mt_n;
    }
}

Rng Rng::child(std::string_view name) const
{
    const std::uint64_t name_hash = std::hash<std::string_view>{}(name);
    return Rng(mix64(seed_ ^ mix64(name_hash)));
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t index)
{
    // Two rounds of the finalizer decorrelate consecutive indices; the
    // constant offsets index 0 away from the plain `Rng(seed)` stream.
    return Rng(mix64(mix64(seed) ^ mix64(index + 0x6a09e667f3bcc909ULL)));
}

double Rng::normal()
{
    return std_normal_(engine_);
}

double Rng::normal(double mean, double sigma)
{
    expects(sigma >= 0.0, "normal() sigma must be non-negative");
    return mean + sigma * std_normal_(engine_);
}

double Rng::truncated_normal(double mean, double sigma, double k)
{
    expects(sigma >= 0.0, "truncated_normal() sigma must be non-negative");
    expects(k > 0.0, "truncated_normal() needs a positive truncation width");
    if (sigma == 0.0) return mean;
    // Rejection sampling: for k >= 1 the acceptance rate is > 68%, so this
    // terminates quickly; guard with a generous iteration cap anyway.
    for (int i = 0; i < 10000; ++i) {
        const double z = std_normal_(engine_);
        if (z >= -k && z <= k) return mean + sigma * z;
    }
    // Statistically unreachable for any k >= 0.01.
    throw Invariant_error("truncated_normal rejection loop failed to accept");
}

double Rng::uniform(double lo, double hi)
{
    expects(hi > lo, "uniform() range must be non-empty");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::uint64_t Rng::index(std::uint64_t n)
{
    expects(n > 0, "index() needs a non-empty range");
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
}

} // namespace mpsram::util
