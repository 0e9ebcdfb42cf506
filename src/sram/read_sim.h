// Read-time measurement: run the read transient and extract td, the time
// from the word line reaching 50% to |Vbl - Vblb| reaching the
// sense-amplifier sensitivity at the sense end of the column.
#ifndef MPSRAM_SRAM_READ_SIM_H
#define MPSRAM_SRAM_READ_SIM_H

#include "spice/analysis.h"
#include "spice/workspace.h"
#include "sram/netlist_builder.h"
#include "sram/sim_accuracy.h"
#include "sram/sim_context.h"

namespace mpsram::sram {

struct Read_options {
    /// Transient resolution (steps across the whole window).  Under the
    /// fast policy this is the nominal reference size of the adaptive
    /// controller, not the actual solve count.
    int nominal_steps = 1500;
    /// Initial guess of the measurement window after word-line mid [s];
    /// grows with the array automatically and doubles on a miss.
    double min_window = 200e-12;
    /// Per-cell window padding [s].
    double window_per_cell = 1.5e-12;
    /// Maximum window-doubling retries before giving up.
    int max_retries = 3;
    spice::Integration_method method =
        spice::Integration_method::trapezoidal;
    /// Integration engine (see sim_accuracy.h): calibrated adaptive-LTE
    /// stepping by default, fixed-step reference when pinned.
    Sim_accuracy accuracy = default_sim_accuracy();
};

struct Read_result {
    double td = -1.0;       ///< [s]; negative if never crossed
    double t_cross = -1.0;  ///< absolute crossing time [s]
    bool crossed = false;
    double bl_final = 0.0;  ///< sense-node BL voltage at window end [V]
    double blb_final = 0.0;
    /// Step-control counters summed over the window-doubling attempts of
    /// this measurement (adaptive-vs-fixed cost observable).
    spice::Step_stats steps;
};

/// Simulate the read and measure td.  The netlist is reusable: capacitor
/// history is re-initialized by the DC operating point of each run.  The
/// workspace form keeps the compiled MNA system across calls (and across
/// the window-doubling retries of one call); results are bitwise identical
/// either way.
Read_result simulate_read(Read_netlist& net,
                          const Read_options& opts = Read_options{});
Read_result simulate_read(Read_netlist& net, const Read_options& opts,
                          spice::Transient_workspace& workspace);

/// Trait binding of the read path for the shared column-simulation
/// context (see sim_context.h).
struct Read_sim_traits {
    using Netlist = Read_netlist;
    using Timing = Read_timing;
    using Options = Read_options;
    using Result = Read_result;

    static Read_netlist build(const tech::Technology& tech,
                              const Cell_electrical& cell,
                              const Bitline_electrical& wires,
                              const Array_config& cfg,
                              const Read_timing& timing,
                              const Netlist_options& nopts)
    {
        return build_read_netlist(tech, cell, wires, cfg, timing, nopts);
    }
    static void update_wires(Read_netlist& net,
                             const Bitline_electrical& wires,
                             const Netlist_options& nopts)
    {
        update_read_netlist_wires(net, wires, nopts);
    }
    static Read_result simulate(Read_netlist& net, const Read_options& opts,
                                spice::Transient_workspace& workspace)
    {
        return simulate_read(net, opts, workspace);
    }
};

/// Re-entrant read-simulation context; see sim_context.h for the reuse
/// and threading contract.
using Read_sim_context = Column_sim_context<Read_sim_traits>;

} // namespace mpsram::sram

#endif // MPSRAM_SRAM_READ_SIM_H
