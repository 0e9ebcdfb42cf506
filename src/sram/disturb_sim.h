// Half-select / read-disturb measurement (the "one more trait binding"
// workload of the unified column substrate).
//
// When a read fires a word line, every column of that row sees its pass
// gates open — including columns that are not being read and whose bit
// lines are held at vdd by the still-active precharge.  In a 0-storing
// cell the open BL pass gate then pulls the low storage node up against
// the pull-down: the half-select bump.  The figure of merit here is the
// peak excursion of q (v_bump) over the word-line pulse; `flipped`
// reports a destructive disturb — the latch still holding q above vdd/2
// at the window end, i.e. the bit is actually lost, not merely grazed.
//
// Interconnect variability enters through the precharged bit-line ladder
// that must hold the far cell's BL stiff while the pass gate draws
// charge — the same extracted RC the read and write studies vary, so the
// worst-case corner search and its memo are shared with them.
//
// The netlist is the read circuit under a disturb drive schedule
// (build_disturb_netlist in netlist_builder.h); this header owns the
// measurement and the per-worker simulation context trait binding.
#ifndef MPSRAM_SRAM_DISTURB_SIM_H
#define MPSRAM_SRAM_DISTURB_SIM_H

#include "spice/workspace.h"
#include "sram/netlist_builder.h"
#include "sram/sim_accuracy.h"
#include "sram/sim_context.h"

namespace mpsram::sram {

struct Disturb_options {
    /// Transient resolution (nominal reference size under the fast policy).
    int nominal_steps = 1500;
    /// Measurement window after the word-line edge [s]; the effective
    /// window is max(window, window_per_cell * n) so tall columns keep the
    /// slower bump settle inside the measured range.
    double window = 200e-12;
    /// Per-cell window padding [s].
    double window_per_cell = 1.5e-12;
    /// Integration engine (see sim_accuracy.h), same policy knob as the
    /// read and write paths.
    Sim_accuracy accuracy = default_sim_accuracy();
};

struct Disturb_result {
    double v_bump = 0.0;  ///< [V] peak q excursion after WL fires
    /// v_bump / (vdd/2): the fraction of the trip margin the bump
    /// consumes.  Can reach 1 transiently without losing the bit — see
    /// `flipped` for the destructive verdict.
    double bump_fraction = 0.0;
    /// Destructive disturb: q still above vdd/2 at the window end (the
    /// latch regenerated the wrong way and the bit is lost).
    bool flipped = false;
    double q_final = 0.0;
    double qb_final = 0.0;
    spice::Step_stats steps;  ///< step-control counters of the run
};

/// Simulate the half-select pulse and measure the storage bump.  The
/// netlist is reusable (capacitor history is re-latched by each run's DC
/// operating point); the workspace form keeps the compiled MNA system
/// across calls.  Results are bitwise identical either way.
Disturb_result simulate_disturb(Disturb_netlist& net,
                                const Disturb_options& opts = Disturb_options{});
Disturb_result simulate_disturb(Disturb_netlist& net,
                                const Disturb_options& opts,
                                spice::Transient_workspace& workspace);

/// Trait binding of the disturb path for the shared column-simulation
/// context (see sim_context.h).  The timing type is the read schedule —
/// the disturb is defined by a read happening elsewhere in the row.
struct Disturb_sim_traits {
    using Netlist = Disturb_netlist;
    using Timing = Read_timing;
    using Options = Disturb_options;
    using Result = Disturb_result;

    static Disturb_netlist build(const tech::Technology& tech,
                                 const Cell_electrical& cell,
                                 const Bitline_electrical& wires,
                                 const Array_config& cfg,
                                 const Read_timing& timing,
                                 const Netlist_options& nopts)
    {
        return build_disturb_netlist(tech, cell, wires, cfg, timing, nopts);
    }
    static void update_wires(Disturb_netlist& net,
                             const Bitline_electrical& wires,
                             const Netlist_options& nopts)
    {
        update_read_netlist_wires(net, wires, nopts);
    }
    static Disturb_result simulate(Disturb_netlist& net,
                                   const Disturb_options& opts,
                                   spice::Transient_workspace& workspace)
    {
        return simulate_disturb(net, opts, workspace);
    }
};

/// Re-entrant disturb-simulation context; see sim_context.h for the reuse
/// and threading contract.
using Disturb_sim_context = Column_sim_context<Disturb_sim_traits>;

} // namespace mpsram::sram

#endif // MPSRAM_SRAM_DISTURB_SIM_H
