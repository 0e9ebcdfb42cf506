#include "sram/write_sim.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "spice/measure.h"
#include "util/check.h"
#include "util/contracts.h"

namespace mpsram::sram {

Write_result simulate_write(Write_netlist& net, const Write_options& opts)
{
    spice::Transient_workspace workspace;
    return simulate_write(net, opts, workspace);
}

Write_result simulate_write(Write_netlist& net, const Write_options& opts,
                            spice::Transient_workspace& workspace)
{
    util::expects(opts.nominal_steps > 0, "steps must be positive");
    util::expects(opts.window > 0.0, "window must be positive");
    util::expects(opts.window_per_cell >= 0.0,
                  "per-cell window padding must be non-negative");

    const double window =
        std::max(opts.window, opts.window_per_cell *
                                  static_cast<double>(net.word_lines));

    spice::Transient_options topts;
    topts.tstop = net.timing.wl_mid() + window;
    topts.nominal_steps = opts.nominal_steps;
    topts.dc = net.dc;
    apply_sim_accuracy(topts, opts.accuracy);

    const std::vector<spice::Node> probes = {net.q, net.qb, net.bl,
                                             net.blb};
    const spice::Transient_result waves =
        spice::run_transient(net.circuit, probes, topts, workspace);

    Write_result r;
    r.steps = waves.steps();
    const std::string q_name = net.circuit.node_name(net.q);
    r.q_final = waves.final_value(q_name);
    r.qb_final = waves.final_value(net.circuit.node_name(net.qb));

    const double t_flip = spice::crossing_time(
        waves, q_name, 0.5 * net.vdd, net.timing.wl_mid());
    if (t_flip >= 0.0 && r.q_final > 0.5 * net.vdd) {
        r.flipped = true;
        r.tw = t_flip - net.timing.wl_mid();
        // Timing contract: a flipped cell reports a finite write time
        // measured from wordline mid-rise, never a negative one.
        MPSRAM_ENSURE(std::isfinite(r.tw) && r.tw >= 0.0,
                      "write time must be finite and non-negative",
                      MPSRAM_VAL(r.tw), MPSRAM_VAL(t_flip));
    }
    return r;
}

} // namespace mpsram::sram
