// The compiled stamp program of spice::Mna_system: linear values are
// reloaded at every analysis run (the value-edit contract of
// Transient_workspace), and the branch-row and current-source stamps are
// pinned against analytic answers.
#include "spice/analysis.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "spice/mosfet_model.h"

namespace {

using namespace mpsram::spice;

/// An inverter driving an RC load, so one transient exercises MOSFET
/// stamps, resistor and capacitor values, and driven-node routes.
struct Inverter_rc {
    Circuit circuit;
    Resistor* r_load = nullptr;
    Capacitor* c_load = nullptr;
    Capacitor* c_out = nullptr;
    Node out = 0;
    Node load = 0;

    Inverter_rc(double r, double c)
    {
        Mosfet_params nm;
        nm.type = Mosfet_type::nmos;
        nm = calibrate_beta(nm, 0.7, 40e-6);
        Mosfet_params pm;
        pm.type = Mosfet_type::pmos;
        pm = calibrate_beta(pm, 0.7, 30e-6);

        const Node vdd = circuit.node("vdd");
        const Node in = circuit.node("in");
        out = circuit.node("out");
        load = circuit.node("load");
        circuit.add_voltage_source("Vdd", vdd, ground_node, Waveform::dc(0.7));
        circuit.add_voltage_source("Vin", in, ground_node,
                                   Waveform::pulse(0.0, 0.7, 50e-12, 10e-12));
        circuit.add_mosfet("Mp", out, in, vdd, pm);
        circuit.add_mosfet("Mn", out, in, ground_node, nm);
        c_out = &circuit.add_capacitor("Cout", out, ground_node, 0.5e-15);
        r_load = &circuit.add_resistor("Rload", out, load, r);
        c_load = &circuit.add_capacitor("Cload", load, ground_node, c);
        // A resistor into the driven rail puts a route on the RHS.
        circuit.add_resistor("Rleak", load, vdd, 1e6);
    }
};

Transient_options inverter_options(Newton_solver solver)
{
    Transient_options opts;
    opts.tstop = 300e-12;
    opts.nominal_steps = 600;
    opts.adaptive = true;
    opts.newton.solver = solver;
    return opts;
}

void expect_bitwise_equal(const Transient_result& a, const Transient_result& b,
                          const std::vector<std::string>& probes)
{
    ASSERT_EQ(a.time(), b.time());
    for (const std::string& p : probes) {
        EXPECT_EQ(a.waveform(p).ys(), b.waveform(p).ys()) << p;
    }
    EXPECT_EQ(a.steps().newton_iterations, b.steps().newton_iterations);
    EXPECT_EQ(a.steps().lu_factorizations, b.steps().lu_factorizations);
}

class ValueEditTest : public ::testing::TestWithParam<Newton_solver> {};

TEST_P(ValueEditTest, EditedWorkspaceMatchesFreshBuildBitwise)
{
    const Transient_options opts = inverter_options(GetParam());
    const std::vector<std::string> probes = {"out", "load"};

    Inverter_rc edited(2000.0, 2e-15);
    Transient_workspace workspace;
    const Transient_result before = run_transient(
        edited.circuit, {edited.out, edited.load}, opts, workspace);

    edited.r_load->set_resistance(5000.0);
    edited.c_load->set_capacitance(4e-15);
    edited.c_out->set_capacitance(1e-15);
    const Transient_result after = run_transient(
        edited.circuit, {edited.out, edited.load}, opts, workspace);
    EXPECT_EQ(workspace.build_count(), 1u) << "value edits must not rebuild";

    Inverter_rc fresh(5000.0, 4e-15);
    fresh.c_out->set_capacitance(1e-15);
    Transient_workspace fresh_workspace;
    const Transient_result expected = run_transient(
        fresh.circuit, {fresh.out, fresh.load}, opts, fresh_workspace);

    expect_bitwise_equal(after, expected, probes);
    // The edit must actually have reached the solve: a slower load.
    EXPECT_NE(before.waveform("load").at(150e-12),
              after.waveform("load").at(150e-12));
}

INSTANTIATE_TEST_SUITE_P(Tiers, ValueEditTest,
                         ::testing::Values(Newton_solver::direct,
                                           Newton_solver::bypass));

/// Grounded 1 V at a, floating 0.5 V from a up to b (branch row), R1 from
/// b to c, R2 from c to ground, a current source into c, and C at c:
///   Thevenin at c: V_th = 1.5 R2 / (R1 + R2) = 0.75 V, R_th = 500 ohm;
///   the source adds I R_th, so v(c) = 0.75 + 500 I.
struct Branch_and_source {
    Circuit circuit;
    Node b = 0;
    Node c = 0;
    static constexpr double r = 1000.0;
    static constexpr double cap = 1e-12;  // tau = R_th C = 0.5 ns
    static constexpr double i_step = 1e-3;
    static constexpr double t_step = 1e-9;

    explicit Branch_and_source(Waveform source)
    {
        const Node a = circuit.node("a");
        b = circuit.node("b");
        c = circuit.node("c");
        circuit.add_voltage_source("V1", a, ground_node, Waveform::dc(1.0));
        circuit.add_voltage_source("V2", b, a, Waveform::dc(0.5));
        circuit.add_resistor("R1", b, c, r);
        circuit.add_resistor("R2", c, ground_node, r);
        circuit.add_current_source("I1", ground_node, c, std::move(source));
        circuit.add_capacitor("C1", c, ground_node, cap);
    }
};

TEST(StampProgram, FloatingSourceBranchAndCurrentSourceDc)
{
    Branch_and_source f(Waveform::dc(Branch_and_source::i_step));
    Transient_workspace workspace;
    const Dc_result r = dc_operating_point(f.circuit, {}, workspace);
    EXPECT_NEAR(r.v(f.b), 1.5, 1e-9);
    EXPECT_NEAR(r.v(f.c), 1.25, 1e-7);
    // The source delivers (v(b) - v(c)) / R1 into its positive node.
    Mna_system& system = workspace.bind(f.circuit);
    ASSERT_EQ(system.branch_count(), 1u);
    EXPECT_NEAR(system.branch_current(0), 0.25e-3, 1e-9);
}

class BranchAndSourceTransient
    : public ::testing::TestWithParam<Newton_solver> {};

TEST_P(BranchAndSourceTransient, StepResponseMatchesAnalytic)
{
    Branch_and_source f(Waveform::pulse(0.0, Branch_and_source::i_step,
                                        Branch_and_source::t_step, 1e-13));
    Transient_options opts;
    opts.tstop = 4e-9;
    opts.nominal_steps = 4000;
    opts.newton.solver = GetParam();
    const Transient_result res = run_transient(f.circuit, {f.b, f.c}, opts);
    const auto vc = res.waveform("c");
    const double tau = 0.5 * Branch_and_source::r * Branch_and_source::cap;
    EXPECT_NEAR(vc.at(0.9e-9), 0.75, 1e-6);
    for (double t_ns : {1.25, 1.5, 2.0, 3.0, 3.9}) {
        const double t = t_ns * 1e-9;
        const double expected =
            1.25 - 0.5 * std::exp(-(t - Branch_and_source::t_step) / tau);
        EXPECT_NEAR(vc.at(t), expected, 2e-3) << "t = " << t_ns << " ns";
    }
    EXPECT_NEAR(res.final_value("b"), 1.5, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Tiers, BranchAndSourceTransient,
                         ::testing::Values(Newton_solver::direct,
                                           Newton_solver::bypass));

} // namespace
