#include "sram/sim_accuracy.h"

#include <cstdlib>
#include <string>

#include "util/contracts.h"

namespace mpsram::sram {

Sim_accuracy parse_sim_accuracy(std::string_view text)
{
    if (text == "fast") return Sim_accuracy::fast;
    if (text == "reference") return Sim_accuracy::reference;
    // A typo must not silently run the wrong engine: someone pinning the
    // oracle for a validation run needs the pin to fail loudly, and the
    // message must show what was seen and what would have worked.
    throw util::Precondition_error(
        "invalid MPSRAM_SIM_ACCURACY value '" + std::string(text) +
        "' (accepted: 'reference', 'fast')");
}

Sim_accuracy default_sim_accuracy()
{
    static const Sim_accuracy value = [] {
        const char* env = std::getenv("MPSRAM_SIM_ACCURACY");
        return env == nullptr ? Sim_accuracy::fast : parse_sim_accuracy(env);
    }();
    return value;
}

void apply_sim_accuracy(spice::Transient_options& topts,
                        Sim_accuracy accuracy)
{
    if (accuracy == Sim_accuracy::reference) {
        topts.adaptive = false;
        topts.newton.solver = spice::Newton_solver::direct;
        return;
    }
    topts.adaptive = true;
    topts.newton.solver = spice::Newton_solver::bypass;
    topts.lte_rel = fast_lte_rel;
    topts.lte_abs = fast_lte_abs;
    topts.lte_max_growth = fast_lte_max_growth;
}

const char* to_string(Sim_accuracy accuracy)
{
    return accuracy == Sim_accuracy::reference ? "reference" : "fast";
}

} // namespace mpsram::sram
