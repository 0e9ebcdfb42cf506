#include "pattern/engine.h"

#include "pattern/euv.h"
#include "pattern/le3.h"
#include "pattern/sadp.h"
#include "util/contracts.h"

namespace mpsram::pattern {

std::string_view Patterning_engine::name() const
{
    return tech::to_string(option());
}

Process_sample Patterning_engine::nominal_sample() const
{
    return Process_sample(axes().size(), 0.0);
}

Process_sample Patterning_engine::sample_gaussian(util::Rng& rng,
                                                  double truncate_k) const
{
    Process_sample s;
    sample_gaussian_into(rng, truncate_k, s);
    return s;
}

void Patterning_engine::sample_gaussian_into(util::Rng& rng,
                                             double truncate_k,
                                             Process_sample& out) const
{
    out.clear();
    out.reserve(axes().size());
    for (const Variation_axis& axis : axes()) {
        out.push_back(rng.truncated_normal(0.0, axis.sigma, truncate_k));
    }
}

void Patterning_engine::realize_into(const geom::Wire_array& decomposed,
                                     std::span<const double> sample,
                                     geom::Wire_array& out) const
{
    out = realize(decomposed, sample);
}

void Patterning_engine::check_sample(std::span<const double> sample) const
{
    util::expects(sample.size() == axes().size(),
                  "process sample size must match the engine's axis count");
}

std::unique_ptr<Patterning_engine> make_engine(tech::Patterning_option option,
                                               const tech::Technology& tech)
{
    switch (option) {
    case tech::Patterning_option::le3:
        return std::make_unique<Le3_engine>(tech);
    case tech::Patterning_option::sadp:
        return std::make_unique<Sadp_engine>(tech);
    case tech::Patterning_option::euv:
        return std::make_unique<Euv_engine>(tech);
    }
    throw util::Precondition_error("unknown patterning option");
}

} // namespace mpsram::pattern
