#include "spice/mosfet.h"

#include "util/contracts.h"

namespace mpsram::spice {

Mosfet::Mosfet(std::string name, Node drain, Node gate, Node source,
               Mosfet_params params, double multiplicity)
    : Device(std::move(name), {drain, gate, source}),
      params_(params),
      m_(multiplicity)
{
    util::expects(multiplicity > 0.0, "multiplicity must be positive");
}

} // namespace mpsram::spice
