#include "util/rng.h"

#include <cmath>

#include "util/contracts.h"
#include "util/hash.h"

namespace mpsram::util {

namespace {

/// splitmix64 of one word: a cheap, well-distributed 64-bit mixer.
std::uint64_t mix64(std::uint64_t z)
{
    return splitmix64_finalize(z + splitmix64_gamma);
}

} // namespace

Rng Rng::child(std::string_view name) const
{
    return Rng(mix64(seed_ ^ mix64(fnv1a(name))));
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t index)
{
    // Two rounds of the finalizer decorrelate consecutive indices; the
    // constant offsets index 0 away from the plain `Rng(seed)` stream.
    return Rng(mix64(mix64(seed) ^ mix64(index + 0x6a09e667f3bcc909ULL)));
}

double Rng::normal()
{
    if (has_spare_) {
        has_spare_ = false;
        return spare_;
    }
    // Marsaglia polar method: a uniform point in the unit disk (rejection
    // from the square, about 21% rejected) yields two independent normals.
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
        x = 2.0 * canonical() - 1.0;
        y = 2.0 * canonical() - 1.0;
        r2 = x * x + y * y;
    } while (r2 >= 1.0 || r2 == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(r2) / r2);
    spare_ = x * scale;
    has_spare_ = true;
    return y * scale;
}

double Rng::normal(double mean, double sigma)
{
    expects(sigma >= 0.0, "normal() sigma must be non-negative");
    return mean + sigma * normal();
}

double Rng::truncated_normal(double mean, double sigma, double k)
{
    expects(sigma >= 0.0, "truncated_normal() sigma must be non-negative");
    expects(k > 0.0, "truncated_normal() needs a positive truncation width");
    if (sigma == 0.0) return mean;
    // Rejection sampling: for k >= 1 the acceptance rate is > 68%, so this
    // terminates quickly; guard with a generous iteration cap anyway.
    for (int i = 0; i < 10000; ++i) {
        const double z = normal();
        if (z >= -k && z <= k) return mean + sigma * z;
    }
    // Statistically unreachable for any k >= 0.01.
    throw Invariant_error("truncated_normal rejection loop failed to accept");
}

double Rng::uniform(double lo, double hi)
{
    expects(hi > lo, "uniform() range must be non-empty");
    expects(std::isfinite(hi - lo), "uniform() range must be finite");
    const double x = lo + (hi - lo) * canonical();
    // The product rounds up to hi for u close to 1 when hi - lo is tiny
    // next to lo; the largest double below hi keeps the range half-open.
    return x < hi ? x : std::nextafter(hi, lo);
}

std::uint64_t Rng::index(std::uint64_t n)
{
    expects(n > 0, "index() needs a non-empty range");
    // Reject the lowest 2^64 mod n outputs: the rest is a whole number of
    // copies of [0, n), so x % n is exactly uniform.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t x = next_u64();
        if (x >= threshold) return x % n;
    }
}

} // namespace mpsram::util
