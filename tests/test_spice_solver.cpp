// Newton solver (spice::Newton_solver): factorization reuse and the
// Step_stats counter contracts that prove which solver actually ran.
// Semantics in spice/analysis.h.
#include "spice/sparse.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "spice/analysis.h"
#include "spice/measure.h"
#include "spice/mosfet_model.h"
#include "sram/read_sim.h"
#include "extract/extractor.h"
#include "util/contracts.h"
#include "util/numeric.h"

namespace {

using namespace mpsram;
using spice::Newton_solver;
using spice::Sparse_lu;
using spice::Sparse_matrix;

/// The -1 2 -1 conductance ladder every bitline discretizes to.
Sparse_matrix ladder(std::size_t n)
{
    std::vector<std::pair<int, int>> entries;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        entries.push_back({static_cast<int>(i), static_cast<int>(i + 1)});
        entries.push_back({static_cast<int>(i + 1), static_cast<int>(i)});
    }
    Sparse_matrix m(n, entries);
    for (std::size_t i = 0; i < n; ++i) {
        m.add(static_cast<int>(i), static_cast<int>(i), 2.0);
        if (i + 1 < n) {
            m.add(static_cast<int>(i), static_cast<int>(i + 1), -1.0);
            m.add(static_cast<int>(i + 1), static_cast<int>(i), -1.0);
        }
    }
    return m;
}

std::vector<double> ramp_rhs(std::size_t n)
{
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
        b[i] = 0.25 + 0.01 * static_cast<double>(i);
    }
    return b;
}

TEST(SolverReuse, StaleFactorSolveBitwiseIdenticalToFresh)
{
    // The bypass tier's core assumption: as long as the values are
    // unchanged, solving against the factorization computed N solves ago
    // is BITWISE identical to refactoring first — reuse can never perturb
    // a converged result, only the iteration count.
    const Sparse_matrix m = ladder(64);
    const std::vector<double> b = ramp_rhs(64);

    Sparse_lu stale(m);
    stale.factor(m);
    std::vector<double> x_stale = b;
    stale.solve(x_stale);  // first solve, factor now "stale"
    std::vector<double> x_stale2 = b;
    stale.solve(x_stale2);  // reuse without refactor

    Sparse_lu fresh(m);
    fresh.factor(m);
    std::vector<double> x_fresh = b;
    fresh.solve(x_fresh);

    for (std::size_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(x_stale[i], x_fresh[i]) << "row " << i;
        EXPECT_EQ(x_stale2[i], x_fresh[i]) << "row " << i;
    }
}

/// A small SRAM read column: the nonlinear MOSFET workload bypass must
/// reproduce, with Step_stats exposing which solver ran.
struct Read_fixture {
    tech::Technology t = tech::n10();
    sram::Cell_electrical cell = sram::Cell_electrical::n10(t.feol);
    extract::Extractor ex{t.metal1};
    sram::Array_config cfg;
    sram::Bitline_electrical wires;

    explicit Read_fixture(int n)
    {
        cfg.word_lines = n;
        cfg.victim_pair = 2;
        const geom::Wire_array arr = sram::build_metal1_array(t, cfg);
        wires = sram::roll_up_nominal(ex, arr, t, cfg);
    }

    /// The read path's first-window transient under fast step control,
    /// with the Newton solver pinned on the transient options.
    sram::Read_result run(Newton_solver solver)
    {
        sram::Read_netlist net =
            sram::build_read_netlist(t, cell, wires, cfg);
        const sram::Read_options read;
        const double t_ref = net.timing.wl_mid();
        spice::Transient_options opts;
        opts.tstop = t_ref + std::max(read.min_window,
                                      read.window_per_cell *
                                          static_cast<double>(cfg.word_lines));
        opts.nominal_steps = read.nominal_steps;
        opts.method = read.method;
        opts.dc = net.dc;
        sram::apply_sim_accuracy(opts, sram::Sim_accuracy::fast);
        opts.newton.solver = solver;
        const spice::Transient_result waves = spice::run_transient(
            net.circuit, {net.bl_sense, net.blb_sense}, opts);

        const std::string bl = net.circuit.node_name(net.bl_sense);
        const std::string blb = net.circuit.node_name(net.blb_sense);
        sram::Read_result r;
        r.steps = waves.steps();
        r.bl_final = waves.final_value(bl);
        r.blb_final = waves.final_value(blb);
        r.t_cross = spice::differential_time(waves, bl, blb,
                                             net.sense_margin, t_ref);
        r.crossed = r.t_cross >= 0.0;
        r.td = r.t_cross - t_ref;
        return r;
    }
};

TEST(SolverPolicy, BypassAgreesWithDirectOnReadColumn)
{
    Read_fixture f(8);
    const sram::Read_result direct = f.run(Newton_solver::direct);
    ASSERT_TRUE(direct.crossed);
    const sram::Read_result r = f.run(Newton_solver::bypass);
    ASSERT_TRUE(r.crossed);
    EXPECT_LE(util::rel_diff(direct.td, r.td), 5e-3);
    EXPECT_LE(std::fabs(direct.bl_final - r.bl_final), 5e-3);
}

TEST(SolverPolicy, DirectCountersFactorEveryIteration)
{
    Read_fixture f(8);
    const sram::Read_result r = f.run(Newton_solver::direct);
    ASSERT_GT(r.steps.newton_iterations, 0);
    EXPECT_EQ(r.steps.lu_factorizations, r.steps.newton_iterations);
    EXPECT_EQ(r.steps.bypass_hits, 0);
}

TEST(SolverPolicy, BypassCountersProveFactorizationsAvoided)
{
    // 64 cells: long enough for quiet waveform stretches, where the
    // staleness envelope actually admits reuse (a tiny column spends
    // most steps moving, so the drift trigger keeps refreshing).
    Read_fixture f(64);
    const sram::Read_result direct = f.run(Newton_solver::direct);
    const sram::Read_result r = f.run(Newton_solver::bypass);
    ASSERT_GT(r.steps.newton_iterations, 0);
    // Every reuse-path iteration either refactors or bypasses — and the
    // point of the tier is factoring far less than the per-iteration
    // oracle on the same workload.
    EXPECT_EQ(r.steps.lu_factorizations + r.steps.bypass_hits,
              r.steps.newton_iterations);
    EXPECT_GT(r.steps.bypass_hits, 0);
    EXPECT_LT(r.steps.lu_factorizations * 2, direct.steps.lu_factorizations);
}

TEST(SolverPolicy, LinearCircuitTiersMatchTightly)
{
    // On a linear RC ladder the Jacobian is constant, so the delta-
    // residual reuse path iterates the SAME exact factorization as the
    // direct tier — the waveforms must agree to rounding, not just to
    // the calibration budget.
    spice::Circuit c;
    const spice::Node in = c.node("in");
    spice::Node prev = in;
    for (int i = 0; i < 20; ++i) {
        const spice::Node n = c.node("n" + std::to_string(i));
        c.add_resistor("R" + std::to_string(i), prev, n, 500.0);
        c.add_capacitor("C" + std::to_string(i), n, spice::ground_node,
                        2e-15);
        prev = n;
    }
    c.add_voltage_source("Vin", in, spice::ground_node,
                         spice::Waveform::pulse(0.0, 0.7, 20e-12, 5e-12));

    auto run = [&](Newton_solver solver) {
        spice::Transient_options opts;
        opts.tstop = 500e-12;
        opts.nominal_steps = 500;
        opts.newton.solver = solver;
        return spice::run_transient(c, {prev}, opts);
    };
    const auto direct = run(Newton_solver::direct);
    const auto bypass = run(Newton_solver::bypass);
    const std::string probe = c.node_name(prev);
    EXPECT_NEAR(direct.final_value(probe), bypass.final_value(probe),
                1e-9);
}

} // namespace
