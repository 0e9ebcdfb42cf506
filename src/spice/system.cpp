#include "spice/system.h"

#include <algorithm>
#include <cmath>

#include "spice/exceptions.h"
#include "util/check.h"
#include "util/contracts.h"

namespace mpsram::spice {

namespace {

/// Companion-model scale a(dt, method): the capacitor companion
/// conductance is a * C (0 in DC, where capacitors are open).
double companion_scale(const Eval_context& ctx)
{
    if (ctx.mode == Analysis_mode::dc) return 0.0;
    util::expects(ctx.dt > 0.0, "companion model needs a positive step");
    switch (ctx.method) {
    case Integration_method::backward_euler:
        return 1.0 / ctx.dt;
    case Integration_method::trapezoidal:
        return 2.0 / ctx.dt;
    }
    throw util::Invariant_error("unknown integration method");
}

/// Sign patterns of the compiled linear stamps.
constexpr std::array<double, 4> two_terminal_signs = {1.0, 1.0, -1.0, -1.0};
constexpr std::array<double, 4> branch_signs = {-1.0, 1.0, 1.0, -1.0};

} // namespace

Mna_system::Mna_system(Circuit& circuit) : circuit_(&circuit)
{
    classify();
    build_pattern();
    reset_reuse_state();
}

void Mna_system::classify()
{
    const std::size_t n_nodes = circuit_->node_count();
    solve_index_.assign(n_nodes, -2);  // -2: unclassified
    solve_index_[ground_node] = -1;

    // Driven nodes from grounded sources.
    for (const Voltage_source* src : circuit_->voltage_sources()) {
        if (!src->grounded()) continue;
        const Node pos = src->pos();
        if (pos == ground_node) {
            throw Netlist_error("voltage source " + src->name() +
                                " shorts ground to ground");
        }
        if (solve_index_[static_cast<std::size_t>(pos)] == -1) {
            throw Netlist_error("node " + circuit_->node_name(pos) +
                                " driven by multiple voltage sources");
        }
        solve_index_[static_cast<std::size_t>(pos)] = -1;
        driven_.push_back({pos, src});
    }

    // Remaining nodes become unknowns, in node order (which follows the
    // netlist build order and therefore the physical structure).
    for (std::size_t n = 0; n < n_nodes; ++n) {
        if (solve_index_[n] == -2) {
            solve_index_[n] = static_cast<int>(unknown_nodes_.size());
            unknown_nodes_.push_back(static_cast<Node>(n));
        }
    }

    // Floating sources get branch unknowns after the node unknowns.
    int next = static_cast<int>(unknown_nodes_.size());
    for (const Voltage_source* src : circuit_->voltage_sources()) {
        if (src->grounded()) continue;
        branches_.push_back({src, next++, {}});
    }

    total_unknowns_ =
        unknown_nodes_.size() + branches_.size();
    util::ensures(total_unknowns_ > 0, "circuit has no unknowns to solve");

    branch_currents_.assign(branches_.size(), 0.0);
}

void Mna_system::build_pattern()
{
    const auto index = [this](Node n) {
        return solve_index_[static_cast<std::size_t>(n)];
    };

    // Pass 1: sort devices into the program's lists and collect the
    // structural entries they touch.
    std::vector<std::pair<int, int>> entries;
    const auto structural = [&](Node eq, Node wrt) {
        if (index(eq) >= 0 && index(wrt) >= 0) {
            entries.push_back({index(eq), index(wrt)});
        }
    };
    const auto two_terminal = [&](const Device& d) {
        const Node a = d.nodes()[0];
        const Node b = d.nodes()[1];
        structural(a, a);
        structural(b, b);
        structural(a, b);
        structural(b, a);
    };
    for (const auto& dev : circuit_->devices()) {
        const Device* d = dev.get();
        if (const auto* r = dynamic_cast<const Resistor*>(d)) {
            resistors_.push_back({r, {}});
            two_terminal(*r);
        } else if (const auto* c = dynamic_cast<const Capacitor*>(d)) {
            const Node a = c->nodes()[0];
            const Node b = c->nodes()[1];
            capacitors_.push_back({c, {}});
            history_.push_back({a, b, index(a), index(b)});
            two_terminal(*c);
        } else if (const auto* i = dynamic_cast<const Current_source*>(d)) {
            current_sources_.push_back({i, index(i->from()), index(i->to())});
        } else if (const auto* m = dynamic_cast<const Mosfet*>(d)) {
            const std::array<Node, 3> n = {m->drain(), m->gate(), m->source()};
            mosfets_.push_back({m, n, index(n[0]), index(n[2]), {}});
            for (const Node eq : {n[0], n[2]}) {
                for (const Node wrt : n) structural(eq, wrt);
            }
        }
        // Voltage sources were classified structurally above.
    }

    // Branch rows/columns for floating sources.
    for (const Branch& b : branches_) {
        const int prow = index(b.source->pos());
        const int nrow = index(b.source->neg());
        if (prow >= 0) {
            entries.push_back({prow, b.index});
            entries.push_back({b.index, prow});
        }
        if (nrow >= 0) {
            entries.push_back({nrow, b.index});
            entries.push_back({b.index, nrow});
        }
    }

    matrix_ = std::make_unique<Sparse_matrix>(total_unknowns_, entries);
    lu_ = std::make_unique<Sparse_lu>(*matrix_);
    rhs_.assign(total_unknowns_, 0.0);
    solution_.assign(total_unknowns_, 0.0);

    // Pass 2: resolve every compiled entry to its slot or RHS route.
    for (Resistor_entry& r : resistors_) {
        r.stamp = compile_two_terminal(r.device->nodes()[0],
                                       r.device->nodes()[1]);
    }
    for (Capacitor_entry& c : capacitors_) {
        c.stamp = compile_two_terminal(c.device->nodes()[0],
                                       c.device->nodes()[1]);
    }
    for (Mosfet_entry& m : mosfets_) {
        std::size_t k = 0;
        for (const int row : {m.row_d, m.row_s}) {
            for (const Node wrt : m.nodes) {
                const int col = index(wrt);
                m.slot[k++] =
                    row >= 0 && col >= 0 ? matrix_->slot(row, col) : -1;
            }
        }
    }
    for (Branch& b : branches_) {
        const int prow = index(b.source->pos());
        const int nrow = index(b.source->neg());
        // KCL columns: branch current flows into pos, out of neg.
        b.stamp = {prow >= 0 ? matrix_->slot(prow, b.index) : -1,
                   compile_entry(b.index, b.source->pos()),
                   nrow >= 0 ? matrix_->slot(nrow, b.index) : -1,
                   compile_entry(b.index, b.source->neg())};
    }
    diag_slot_.resize(unknown_nodes_.size());
    for (std::size_t u = 0; u < diag_slot_.size(); ++u) {
        diag_slot_[u] = matrix_->slot(static_cast<int>(u),
                                      static_cast<int>(u));
    }
}

int Mna_system::compile_entry(int row, Node wrt)
{
    if (row < 0) return -1;  // ground or driven equation: dropped
    const int col = solve_index_[static_cast<std::size_t>(wrt)];
    if (col >= 0) return matrix_->slot(row, col);
    if (wrt == ground_node) return -1;  // contributes 0
    routes_.push_back({row, wrt});
    return static_cast<int>(matrix_->nonzeros() + routes_.size()) - 1;
}

Mna_system::Lin_stamp Mna_system::compile_two_terminal(Node a, Node b)
{
    const int ra = solve_index_[static_cast<std::size_t>(a)];
    const int rb = solve_index_[static_cast<std::size_t>(b)];
    return {compile_entry(ra, a), compile_entry(rb, b), compile_entry(ra, b),
            compile_entry(rb, a)};
}

void Mna_system::reset_reuse_state()
{
    // Reload the linear values: the devices may have been re-pointed at
    // new values since the last run (the sweep-reuse contract).
    const std::size_t values = matrix_->nonzeros() + routes_.size();
    g_lin_.assign(values, 0.0);
    c_lin_.assign(values, 0.0);
    const auto add = [](std::vector<double>& lin, const Lin_stamp& stamp,
                        const std::array<double, 4>& signs, double x) {
        for (std::size_t k = 0; k < stamp.size(); ++k) {
            if (stamp[k] < 0) continue;
            lin[static_cast<std::size_t>(stamp[k])] += signs[k] * x;
        }
    };
    for (const Resistor_entry& r : resistors_) {
        add(g_lin_, r.stamp, two_terminal_signs,
            1.0 / r.device->resistance());
    }
    for (std::size_t k = 0; k < capacitors_.size(); ++k) {
        Capacitor_history& h = history_[k];
        h.c = capacitors_[k].device->capacitance();
        h.v_prev = 0.0;
        h.i_prev = 0.0;
        add(c_lin_, capacitors_[k].stamp, two_terminal_signs, h.c);
    }
    for (const Branch& b : branches_) {
        add(g_lin_, b.stamp, branch_signs, 1.0);
    }

    base_valid_ = false;
    factored_ = false;
    for (Mosfet_entry& m : mosfets_) m.valid = false;
}

void Mna_system::apply_driven(double t, std::vector<double>& voltages) const
{
    util::expects(voltages.size() == circuit_->node_count(),
                  "voltage vector size mismatch");
    voltages[ground_node] = 0.0;
    for (const Driven& d : driven_) {
        voltages[static_cast<std::size_t>(d.node)] = d.source->value(t);
    }
}

void Mna_system::prepare_solve(const Eval_context& ctx,
                               const std::vector<double>& voltages,
                               const Newton_options& opts)
{
    const double a = companion_scale(ctx);
    const Integration_method method =
        ctx.mode == Analysis_mode::dc ? Integration_method::backward_euler
                                      : ctx.method;
    if (!base_valid_ || base_mode_ != ctx.mode || base_method_ != method ||
        base_dt_ != ctx.dt || base_gmin_ != opts.gmin) {
        base_values_.resize(matrix_->nonzeros());
        for (std::size_t s = 0; s < base_values_.size(); ++s) {
            base_values_[s] = g_lin_[s] + a * c_lin_[s];
        }
        for (const int s : diag_slot_) {
            base_values_[static_cast<std::size_t>(s)] += opts.gmin;
        }
        base_valid_ = true;
        base_mode_ = ctx.mode;
        base_method_ = method;
        base_dt_ = ctx.dt;
        base_gmin_ = opts.gmin;
    }

    base_rhs_.assign(total_unknowns_, 0.0);
    for (std::size_t k = 0; k < routes_.size(); ++k) {
        const Route& r = routes_[k];
        const std::size_t s = matrix_->nonzeros() + k;
        base_rhs_[static_cast<std::size_t>(r.row)] -=
            (g_lin_[s] + a * c_lin_[s]) *
            voltages[static_cast<std::size_t>(r.node)];
    }
    if (ctx.mode == Analysis_mode::transient) {
        // Companion history: i_new = a C v_new - hist flows a -> b, so
        // `hist` is an equivalent source pushing current into a.
        //   BE:   hist = a C v_prev          (a = 1/dt)
        //   TRAP: hist = a C v_prev + i_prev (a = 2/dt)
        const bool trap = ctx.method == Integration_method::trapezoidal;
        for (const Capacitor_history& h : history_) {
            double hist = a * h.c * h.v_prev;
            if (trap) hist += h.i_prev;
            if (h.row_a >= 0) {
                base_rhs_[static_cast<std::size_t>(h.row_a)] += hist;
            }
            if (h.row_b >= 0) {
                base_rhs_[static_cast<std::size_t>(h.row_b)] -= hist;
            }
        }
    }
    for (const Current_entry& i : current_sources_) {
        const double value = i.device->value(ctx.time);
        if (i.row_to >= 0) {
            base_rhs_[static_cast<std::size_t>(i.row_to)] += value;
        }
        if (i.row_from >= 0) {
            base_rhs_[static_cast<std::size_t>(i.row_from)] -= value;
        }
    }
    for (const Branch& b : branches_) {
        base_rhs_[static_cast<std::size_t>(b.index)] +=
            b.source->value(ctx.time);
    }
}

void Mna_system::assemble(const std::vector<double>& voltages,
                          double mosfet_vtol,
                          std::span<const Forced_node> forces)
{
    matrix_->assign_values(base_values_);
    rhs_ = base_rhs_;

    stamp_mosfets(voltages, mosfet_vtol);

    // Initial-condition forcing.
    for (const Forced_node& f : forces) {
        const int row = solve_index_[static_cast<std::size_t>(f.node)];
        if (row < 0) continue;
        matrix_->add_at_slot(diag_slot_[static_cast<std::size_t>(row)],
                             f.conductance);
        rhs_[static_cast<std::size_t>(row)] += f.conductance * f.voltage;
    }
}

/// Newton companion of every MOSFET: ids(v) ~ i_const + gds vd + gm vg +
/// gms vs, with ids flowing d -> s inside the device (leaving node d,
/// entering node s).  A MOSFET whose terminals all stayed within `vtol`
/// of its last evaluation reuses that linearization (device bypass);
/// columns of known voltages always read the current values.
void Mna_system::stamp_mosfets(const std::vector<double>& voltages,
                               double vtol)
{
    const auto v = [&](Node n) {
        return voltages[static_cast<std::size_t>(n)];
    };
    const auto stamp_entry = [](std::span<double> values, int slot,
                                double& rhs, double g, double v_col) {
        if (slot >= 0) {
            values[static_cast<std::size_t>(slot)] += g;
        } else {
            rhs -= g * v_col;
        }
    };
    const std::span<double> values = matrix_->mutable_values();
    for (Mosfet_entry& m : mosfets_) {
        const double vd = v(m.nodes[0]);
        const double vg = v(m.nodes[1]);
        const double vs = v(m.nodes[2]);
        const bool quiet = vtol > 0.0 && m.valid &&
                           std::fabs(vd - m.v_eval[0]) <= vtol &&
                           std::fabs(vg - m.v_eval[1]) <= vtol &&
                           std::fabs(vs - m.v_eval[2]) <= vtol;
        if (!quiet) {
            const Mosfet_eval e =
                evaluate_mosfet(m.device->params(), vd, vg, vs,
                                m.device->multiplicity());
            m.v_eval = {vd, vg, vs};
            m.gds = e.gds;
            m.gm = e.gm;
            m.gms = e.gms;
            m.i_const = e.ids - (e.gds * vd + e.gm * vg + e.gms * vs);
            m.valid = true;
            // A NaN linearization would be accepted as "converged" (NaN
            // fails every tolerance comparison) and cached for bypass.
            MPSRAM_ASSERT(std::isfinite(m.gds) && std::isfinite(m.gm) &&
                              std::isfinite(m.gms) &&
                              std::isfinite(m.i_const),
                          "non-finite MOSFET linearization",
                          MPSRAM_VAL(vd), MPSRAM_VAL(vg), MPSRAM_VAL(vs));
        }
        // Per row: the three conductances (columns d, g, s; a known
        // column moves to the RHS), then the constant current term.
        if (m.row_d >= 0) {
            double r = rhs_[static_cast<std::size_t>(m.row_d)];
            stamp_entry(values, m.slot[0], r, m.gds, vd);
            stamp_entry(values, m.slot[1], r, m.gm, vg);
            stamp_entry(values, m.slot[2], r, m.gms, vs);
            rhs_[static_cast<std::size_t>(m.row_d)] = r - m.i_const;
        }
        if (m.row_s >= 0) {
            double r = rhs_[static_cast<std::size_t>(m.row_s)];
            stamp_entry(values, m.slot[3], r, -m.gds, vd);
            stamp_entry(values, m.slot[4], r, -m.gm, vg);
            stamp_entry(values, m.slot[5], r, -m.gms, vs);
            rhs_[static_cast<std::size_t>(m.row_s)] = r + m.i_const;
        }
    }
}

int Mna_system::solve(const Eval_context& ctx,
                      std::vector<double>& voltages,
                      const Newton_options& opts,
                      std::span<const Forced_node> forces)
{
    util::expects(voltages.size() == circuit_->node_count(),
                  "voltage vector size mismatch");

    apply_driven(ctx.time, voltages);
    prepare_solve(ctx, voltages, opts);

    if (opts.solver == Newton_solver::direct) {
        return solve_direct(ctx, voltages, opts, forces);
    }
    return solve_reuse(ctx, voltages, opts, forces);
}

int Mna_system::solve_direct(Eval_context ctx, std::vector<double>& voltages,
                             const Newton_options& opts,
                             std::span<const Forced_node> forces)
{
    // The reference path: every operation here predates the solver tiers
    // and must stay bitwise identical to them.  Direct factors leave no
    // reusable state (no operating point is recorded for them).
    factored_ = false;

    const int max_iter = opts.max_iterations;

    for (int iter = 1; iter <= max_iter; ++iter) {
        assemble(voltages, 0.0, forces);

        lu_->factor(*matrix_, opts.pivot_floor);
        ++counters_.lu_factorizations;
        ++counters_.newton_iterations;
        solution_ = rhs_;
        lu_->solve(solution_);
        // NaN/Inf in the update vector would pass the tolerance test
        // below (every comparison with NaN is false) and be accepted as
        // "converged" — the solver-vector guard closes that hole.
        MPSRAM_ASSERT(util::all_finite(solution_),
                      "non-finite direct Newton update",
                      MPSRAM_VAL(ctx.time), MPSRAM_VAL(iter));

        // Damped update + convergence check.
        bool converged = true;
        for (std::size_t u = 0; u < unknown_nodes_.size(); ++u) {
            const auto node = static_cast<std::size_t>(unknown_nodes_[u]);
            double dv = solution_[u] - voltages[node];
            if (dv > opts.vstep_limit) dv = opts.vstep_limit;
            if (dv < -opts.vstep_limit) dv = -opts.vstep_limit;
            voltages[node] += dv;
            const double tol =
                opts.abstol + opts.reltol * std::fabs(voltages[node]);
            if (std::fabs(dv) > tol) converged = false;
        }
        for (std::size_t b = 0; b < branches_.size(); ++b) {
            branch_currents_[b] =
                solution_[unknown_nodes_.size() + b];
        }

        if (converged && iter > 1) return iter;
    }

    throw Convergence_error(
        "Newton did not converge in " + std::to_string(max_iter) +
        " iterations (t = " + std::to_string(ctx.time) + " s)");
}

bool Mna_system::factor_stale(const Eval_context& ctx,
                              const std::vector<double>& voltages,
                              const Newton_options& opts) const
{
    if (!factored_) return true;
    if (mode_at_factor_ != ctx.mode || method_at_factor_ != ctx.method) {
        return true;
    }
    if (gmin_at_factor_ != opts.gmin) return true;
    if (ctx.mode == Analysis_mode::transient) {
        if (dt_at_factor_ <= 0.0 || ctx.dt <= 0.0) return true;
        const double ratio = ctx.dt / dt_at_factor_;
        if (ratio > opts.bypass_dt_band ||
            ratio * opts.bypass_dt_band < 1.0) {
            return true;
        }
    } else if (ctx.dt != dt_at_factor_) {
        return true;
    }
    // Drift over the FULL node vector: driven nodes are not unknowns, but
    // a moving word line changes every linearization it gates.
    for (std::size_t n = 0; n < voltages.size(); ++n) {
        if (std::fabs(voltages[n] - v_at_factor_[n]) > opts.bypass_vtol) {
            return true;
        }
    }
    return false;
}

int Mna_system::solve_reuse(Eval_context ctx, std::vector<double>& voltages,
                            const Newton_options& opts,
                            std::span<const Forced_node> forces)
{
    // Delta-residual (chord) Newton.  The Jacobian and linearization RHS
    // are assembled every iteration — with quiet MOSFETs reusing their
    // last linearization (stamp_mosfets) — and only the linear solve runs
    // on a possibly stale factorization:
    //
    //     r = rhs - J x      (assembled J and rhs, SpMV)
    //     M delta = r        (M = possibly stale LU)
    //     x += clamp(delta)
    //
    // The fixed point satisfies r = 0 for the assembled system, so a
    // stale M only slows convergence — it cannot change the answer.  This
    // is what makes bypass safe for the nonlinear MOSFET stamps, where
    // pairing a stale factorization with a fresh absolute RHS would
    // converge to the wrong point.  Device-level bypass does perturb the
    // fixed point, by at most g * device_bypass_vtol per quiet MOSFET;
    // the 0.5% agreement gate holds that end to end.
    const int max_iter = opts.max_iterations;
    const std::size_t n_node = unknown_nodes_.size();

    // Set when the loop converged under a stale operator: the next
    // iteration refreshes and recomputes a TRUE Newton step, so the
    // accepted point passes the same fresh-Jacobian tolerance test as
    // the direct tier (a small chord step under a slowly contracting
    // stale M does not bound the true step).
    bool confirm = false;
    // Consecutive iterations served by the current factorization in this
    // solve: the stall trigger refreshes a factor that has worked this
    // long without converging, rather than abandoning reuse wholesale.
    int stale_iters = 0;

    for (int iter = 1; iter <= max_iter; ++iter) {
        assemble(voltages, opts.device_bypass_vtol, forces);
        ++counters_.newton_iterations;

        const bool refresh = !forces.empty() || confirm ||
                             stale_iters >= opts.bypass_stall_iters ||
                             factor_stale(ctx, voltages, opts);
        if (refresh) {
            lu_->factor(*matrix_, opts.pivot_floor);
            ++counters_.lu_factorizations;
            mode_at_factor_ = ctx.mode;
            method_at_factor_ = ctx.method;
            dt_at_factor_ = ctx.dt;
            gmin_at_factor_ = opts.gmin;
            v_at_factor_ = voltages;
            // Factors taken with forcing stamps in the matrix are never
            // valid for an unforced solve.
            factored_ = forces.empty();
            stale_iters = 0;
        } else {
            ++counters_.bypass_hits;
            ++stale_iters;
        }

        x_.resize(total_unknowns_);
        for (std::size_t u = 0; u < n_node; ++u) {
            x_[u] = voltages[static_cast<std::size_t>(unknown_nodes_[u])];
        }
        for (std::size_t b = 0; b < branches_.size(); ++b) {
            x_[n_node + b] = branch_currents_[b];
        }
        matrix_->multiply(x_, residual_);
        for (std::size_t i = 0; i < total_unknowns_; ++i) {
            residual_[i] = rhs_[i] - residual_[i];
        }

        delta_ = residual_;
        lu_->solve(delta_);
        // The residual is assembled fresh each iteration, so a poisoned
        // delta means either a poisoned stamp slipped through or the
        // stale factorization produced garbage.
        MPSRAM_ASSERT(util::all_finite(delta_),
                      "non-finite bypass Newton delta",
                      MPSRAM_VAL(ctx.time), MPSRAM_VAL(iter));

        bool converged = true;
        for (std::size_t u = 0; u < n_node; ++u) {
            const auto node = static_cast<std::size_t>(unknown_nodes_[u]);
            double dv = delta_[u];
            if (dv > opts.vstep_limit) dv = opts.vstep_limit;
            if (dv < -opts.vstep_limit) dv = -opts.vstep_limit;
            voltages[node] += dv;
            const double tol =
                opts.abstol + opts.reltol * std::fabs(voltages[node]);
            if (std::fabs(dv) > tol) converged = false;
        }
        for (std::size_t b = 0; b < branches_.size(); ++b) {
            branch_currents_[b] += delta_[n_node + b];
        }

        // Acceptance: the final sub-tolerance step must be measured
        // against an operator that is current for the accepted point —
        // either refreshed this iteration, or still inside the
        // (dt-exact, bypass_vtol) staleness envelope of the final
        // iterate.  That criterion is meaningful from iteration 1 on
        // (unlike the direct path's two-iteration minimum, which guards
        // an absolute-RHS solve, a sub-tolerance DELTA against a current
        // operator is already a converged Newton test — quiet waveform
        // stretches accept in one bypassed iteration).  A solve that
        // converged outside the envelope gets one confirmation iteration
        // on a fresh factorization instead; device bypass keeps that
        // cheap, since every MOSFET is quiet after a
        // sub-tolerance update.
        if (converged) {
            if (refresh || !factor_stale(ctx, voltages, opts)) {
                // Stale-LU acceptance contract: an accepted point was
                // measured against a current operator — refreshed this
                // iteration or still inside the (dt-band, bypass_vtol)
                // envelope of the final iterate.  `factored_` may only be
                // down when this solve carried forcing stamps, whose
                // factors are deliberately never kept.
                MPSRAM_ASSERT(factored_ || !forces.empty(),
                              "reuse-tier solve accepted without a live "
                              "factorization",
                              MPSRAM_VAL(ctx.time), MPSRAM_VAL(iter));
                return iter;
            }
            confirm = true;
        }
    }

    // A failed step is about to be rejected and retried smaller — do not
    // let its factorization leak into the retry.
    factored_ = false;
    throw Convergence_error(
        "Newton did not converge in " + std::to_string(max_iter) +
        " iterations (t = " + std::to_string(ctx.time) + " s)");
}

void Mna_system::accept(const Eval_context& ctx)
{
    const auto v = [&](Node n) {
        return ctx.voltages[static_cast<std::size_t>(n)];
    };
    if (ctx.mode == Analysis_mode::dc) {
        for (Capacitor_history& h : history_) {
            h.v_prev = v(h.a) - v(h.b);
            h.i_prev = 0.0;
        }
        return;
    }
    const double a = companion_scale(ctx);
    const bool trap = ctx.method == Integration_method::trapezoidal;
    for (Capacitor_history& h : history_) {
        const double v_now = v(h.a) - v(h.b);
        double hist = a * h.c * h.v_prev;
        if (trap) hist += h.i_prev;
        h.i_prev = a * h.c * v_now - hist;
        h.v_prev = v_now;
    }
}

std::vector<double> Mna_system::breakpoints(double tstop) const
{
    std::vector<double> out;
    for (const auto& dev : circuit_->devices()) {
        dev->add_breakpoints(tstop, out);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [](double a, double b) {
                              return std::fabs(a - b) < 1e-18;
                          }),
              out.end());
    return out;
}

double Mna_system::branch_current(std::size_t i) const
{
    util::expects(i < branch_currents_.size(), "branch index out of range");
    return branch_currents_[i];
}

} // namespace mpsram::spice
