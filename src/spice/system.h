// Compiled MNA system: node classification, the compiled stamp program,
// and the Newton-Raphson solve shared by DC and transient analyses.
//
// Classification: a voltage source with its negative terminal on ground
// makes its positive node "driven" (known voltage, no unknown — the common
// case for rails and clocks, and what keeps the matrix a pure conductance
// matrix).  Floating voltage sources get a branch-current unknown appended
// after the node unknowns, where elimination fill guarantees their pivots.
//
// Stamp program: the device set is closed (spice/device.h), so the
// constructor compiles every device of the five library classes once
// against the fixed CSR pattern, in the spirit of caper's split
// conductance (G) and transient (C) matrices; no device is stamped
// through a virtual call.
//   * Linear entries become slot-resolved arrays over the CSR values:
//     G_lin (resistors, floating-source branch rows) and C_lin
//     (capacitors); entries whose column is a driven node become RHS
//     routes.  reset_reuse_state() reloads their values from the devices,
//     so value edits on a bound workspace take effect at the next run.
//   * Per solve, base = G_lin + a(dt, method) C_lin + gmin I is formed in
//     one fused pass, only when dt, method, mode or gmin changed, and the
//     RHS gets the driven routes, capacitor history and source values in
//     one pass.
//   * Per Newton iteration, the matrix and RHS start as copies of the
//     per-solve base; only MOSFETs (through precomputed slots) and
//     initial-condition forcing are stamped on top.
//   * accept() latches the capacitor history in one pass over its arrays.
// Both Newton solvers assemble from this one program.
#ifndef MPSRAM_SPICE_SYSTEM_H
#define MPSRAM_SPICE_SYSTEM_H

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "spice/circuit.h"
#include "spice/sparse.h"

namespace mpsram::spice {

/// Linear solver inside the Newton loop (full semantics in analysis.h;
/// sram::apply_sim_accuracy picks it from the accuracy tier).
///
///   direct    — factor the Jacobian on every Newton iteration.  The
///               bitwise oracle that bypass is gated against.
///   bypass    — delta-residual (chord) Newton with device-level bypass:
///               the Jacobian and RHS are assembled every iteration from
///               the stamp program, with quiet MOSFETs (terminal movement
///               below device_bypass_vtol) reusing their last
///               linearization instead of re-running the compact model,
///               and the linear solve reuses the last LU factorization
///               until the operating point drifts, dt leaves the
///               factor-time band, or convergence stalls.  Converged
///               solutions satisfy the assembled residual — exact up to
///               g * device_bypass_vtol per quiet MOSFET, held to the
///               0.5% agreement budget.
enum class Newton_solver { direct, bypass };

struct Newton_options {
    int max_iterations = 100;
    /// Per-node voltage convergence: |dv| <= abstol + reltol * |v|.
    double abstol = 1e-6;
    double reltol = 1e-4;
    /// Per-iteration voltage step clamp [V] (Newton damping).
    double vstep_limit = 0.3;
    /// Conductance to ground added on every node diagonal [S].
    double gmin = 1e-12;
    double pivot_floor = 1e-13;

    Newton_solver solver = Newton_solver::direct;
    /// bypass: refresh the factorization when any node voltage
    /// (driven nodes included — word-line ramps move the MOSFET
    /// linearizations) drifts more than this from the factor-time
    /// operating point [V].  Kept tight: a near-current operator keeps
    /// chord steps Newton-quality AND lets a converged solve accept on a
    /// still-valid factor without a confirmation iteration.
    double bypass_vtol = 5e-3;
    /// bypass: refresh when dt leaves [dt_f / band, dt_f * band]
    /// around the factor-time step (capacitor companion conductances
    /// scale as C/dt).  Default 1.0 = dt-exact reuse: the adaptive
    /// controller parks at dt_max through quiet stretches, which is
    /// where reuse pays; reusing across a dt change perturbs every
    /// companion conductance and stalls the chord iteration.
    double bypass_dt_band = 1.0;
    /// bypass: refresh once a factorization has served this
    /// many consecutive Newton iterations within a solve (convergence
    /// stall under a stale operator).
    int bypass_stall_iters = 5;
    /// bypass: device-level bypass (the classic SPICE BYPASS
    /// lever).  A MOSFET whose terminal voltages — driven terminals
    /// included — all moved less than this [V] since its last evaluation
    /// stamps its cached linearization instead of re-running the compact
    /// model.  The reused linearization is off by at most g * vtol, which
    /// the 0.5% agreement gate bounds end to end; the direct tier never
    /// uses it.  0 disables.
    double device_bypass_vtol = 1e-4;
};

/// Cumulative linear-solver work counters (monotone over the life of the
/// system; analysis drivers snapshot-and-diff them into per-run
/// Step_stats).  `bypass_hits` counts Newton iterations whose linear
/// solve was served by a reused factorization — factorization-avoidance
/// made observable.
struct Solver_counters {
    long long newton_iterations = 0;
    long long lu_factorizations = 0;
    long long bypass_hits = 0;
};

/// A node temporarily pinned toward a voltage through a conductance
/// (initial-condition support for bistable circuits).
struct Forced_node {
    Node node = ground_node;
    double voltage = 0.0;
    double conductance = 1.0;
};

class Mna_system {
public:
    explicit Mna_system(Circuit& circuit);

    std::size_t unknown_count() const { return total_unknowns_; }
    std::size_t node_unknown_count() const { return unknown_nodes_.size(); }
    std::size_t branch_count() const { return branches_.size(); }

    /// Fill driven-node voltages for time t into the full voltage vector.
    void apply_driven(double t, std::vector<double>& voltages) const;

    /// Newton-solve the system at the given context.  `voltages` (full
    /// node-indexed vector) is both the initial guess and the result.
    /// Returns the iteration count; throws Convergence_error on failure.
    int solve(const Eval_context& ctx, std::vector<double>& voltages,
              const Newton_options& opts,
              std::span<const Forced_node> forces = {});

    /// Latch the capacitor history at the accepted point `ctx` (a DC
    /// solution or an accepted transient step).
    // lint:allow(raw-socket) -- a stepper callback, not the syscall
    void accept(const Eval_context& ctx);

    /// Union of breakpoints of all sources in (0, tstop), sorted unique.
    std::vector<double> breakpoints(double tstop) const;

    /// Branch current of floating source `i` from the last solve [A].
    double branch_current(std::size_t i) const;

    /// Cumulative solver work counters (never reset; diff snapshots).
    const Solver_counters& counters() const { return counters_; }

    /// Reload the compiled linear values (R, C) from the devices and drop
    /// all cross-solve reuse state (per-solve base, stale factorization,
    /// MOSFET linearization caches).  Analyses call this once per run,
    /// right after binding, so device value edits take effect and a
    /// result is a function of that run's inputs alone — never of what a
    /// reused workspace solved before.  Load-bearing for MC: samples
    /// change device parameters without moving the voltages the staleness
    /// checks watch.
    void reset_reuse_state();

private:
    /// The four compiled entries of a two-terminal element or a branch
    /// row.  Each is an index into the linear value arrays (g_lin_,
    /// c_lin_): a CSR slot when the column is an unknown, nnz + k for
    /// driven-node route k when it is a known voltage, -1 when the row or
    /// column is dropped (ground or a driven equation).
    using Lin_stamp = std::array<int, 4>;

    /// A driven column: rhs[row] -= (G + a C)[nnz + k] * v[node].
    struct Route {
        int row;
        Node node;
    };

    struct Resistor_entry {
        const Resistor* device;
        Lin_stamp stamp;
    };

    struct Capacitor_entry {
        const Capacitor* device;
        Lin_stamp stamp;
    };

    /// Companion-model state of one capacitor (parallel to
    /// `capacitors_`): terminals, value, and branch voltage a - b and
    /// branch current a -> b at the last accepted point.
    struct Capacitor_history {
        Node a;
        Node b;
        int row_a;
        int row_b;
        double c = 0.0;
        double v_prev = 0.0;
        double i_prev = 0.0;
    };

    struct Current_entry {
        const Current_source* device;
        int row_from;
        int row_to;
    };

    /// MOSFET with precomputed Jacobian slots, in the order (d,d) (d,g)
    /// (d,s) (s,d) (s,g) (s,s); -1 routes the column to the RHS.  The
    /// cached linearization (terminal voltages at evaluation, gds, gm,
    /// gms, and the constant current term) serves device bypass.
    struct Mosfet_entry {
        const Mosfet* device;
        std::array<Node, 3> nodes;  ///< drain, gate, source
        int row_d;
        int row_s;
        std::array<int, 6> slot;
        std::array<double, 3> v_eval{};
        double gds = 0.0;
        double gm = 0.0;
        double gms = 0.0;
        double i_const = 0.0;
        bool valid = false;
    };

    struct Driven {
        Node node;
        const Voltage_source* source;
    };

    struct Branch {
        const Voltage_source* source;
        int index;  ///< unknown index of the branch current
        /// (pos, branch) -1, (branch, pos) +1, (neg, branch) +1,
        /// (branch, neg) -1.
        Lin_stamp stamp;
    };

    void classify();
    void build_pattern();
    int compile_entry(int row, Node wrt);
    Lin_stamp compile_two_terminal(Node a, Node b);

    /// Per-solve part of the program: base matrix (on a key change) and
    /// base RHS.  `voltages` must already carry the driven values.
    void prepare_solve(const Eval_context& ctx,
                       const std::vector<double>& voltages,
                       const Newton_options& opts);
    /// Per-iteration assembly: base copy plus MOSFET and forcing stamps.
    /// `mosfet_vtol` = 0 evaluates every MOSFET.
    void assemble(const std::vector<double>& voltages, double mosfet_vtol,
                  std::span<const Forced_node> forces);
    void stamp_mosfets(const std::vector<double>& voltages, double vtol);

    int solve_direct(Eval_context ctx, std::vector<double>& voltages,
                     const Newton_options& opts,
                     std::span<const Forced_node> forces);
    int solve_reuse(Eval_context ctx, std::vector<double>& voltages,
                    const Newton_options& opts,
                    std::span<const Forced_node> forces);
    bool factor_stale(const Eval_context& ctx,
                      const std::vector<double>& voltages,
                      const Newton_options& opts) const;

    Circuit* circuit_;
    std::vector<int> solve_index_;    ///< node -> unknown index or -1
    std::vector<Node> unknown_nodes_; ///< unknown index -> node
    std::vector<Driven> driven_;
    std::vector<Branch> branches_;
    std::size_t total_unknowns_ = 0;

    std::unique_ptr<Sparse_matrix> matrix_;
    std::unique_ptr<Sparse_lu> lu_;
    std::vector<double> rhs_;
    std::vector<double> solution_;
    std::vector<double> branch_currents_;

    // The compiled stamp program (see the header comment).  The device
    // lists follow circuit order; `diag_slot_` is the (u, u) slot of each
    // node unknown (gmin and forcing land there).
    std::vector<Resistor_entry> resistors_;
    std::vector<Capacitor_entry> capacitors_;
    std::vector<Capacitor_history> history_;
    std::vector<Current_entry> current_sources_;
    std::vector<Mosfet_entry> mosfets_;
    std::vector<Route> routes_;
    std::vector<int> diag_slot_;
    std::vector<double> g_lin_;  ///< per CSR slot, then per route
    std::vector<double> c_lin_;  ///< per CSR slot, then per route

    // Per-solve base of the assembled system, keyed on what `base_values_`
    // depends on; `base_rhs_` is rebuilt on every solve.
    bool base_valid_ = false;
    Analysis_mode base_mode_ = Analysis_mode::dc;
    Integration_method base_method_ = Integration_method::backward_euler;
    double base_dt_ = 0.0;
    double base_gmin_ = 0.0;
    std::vector<double> base_values_;
    std::vector<double> base_rhs_;

    // Factorization-reuse state (bypass).  The reuse validity conditions
    // live in factor_stale(); `v_at_factor_` is the full node-indexed
    // voltage vector at factor time.
    Solver_counters counters_;
    bool factored_ = false;
    Analysis_mode mode_at_factor_ = Analysis_mode::dc;
    Integration_method method_at_factor_ = Integration_method::backward_euler;
    double dt_at_factor_ = 0.0;
    double gmin_at_factor_ = 0.0;
    std::vector<double> v_at_factor_;

    std::vector<double> x_, residual_, delta_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_SYSTEM_H
