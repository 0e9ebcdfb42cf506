// Newton solver at the query/session layer: the accuracy tier picks it
// (sram::apply_sim_accuracy — reference runs direct, fast runs bypass),
// the fast tier stays inside the paper-row calibration budget against
// the reference oracle, and both stay bitwise deterministic across
// thread counts.
#include <cmath>

#include <gtest/gtest.h>

#include "core/query.h"
#include "core/session.h"
#include "extract/extractor.h"
#include "sram/read_sim.h"
#include "util/numeric.h"

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;

constexpr int kSizes[] = {8, 16, 24, 32};

// --- the accuracy -> solver mapping ------------------------------------------

TEST(SolverMapping, SessionReadsRunTheSolverOfTheirAccuracy)
{
    // The session's read options are the only solver input left: a fast
    // read must show factorization reuse, a reference read must factor
    // on every Newton iteration.
    for (const sram::Sim_accuracy accuracy :
         {sram::Sim_accuracy::fast, sram::Sim_accuracy::reference}) {
        core::Study_options sopts;
        sopts.read.accuracy = accuracy;
        const core::Study_session session(tech::n10(), sopts);
        const tech::Technology& t = session.technology();
        sram::Array_config cfg = session.options().array;
        cfg.word_lines = 64;
        const sram::Bitline_electrical wires = sram::roll_up_nominal(
            session.extractor(),
            session.decomposed_array(tech::Patterning_option::euv, 64), t,
            cfg);
        sram::Read_sim_context sim;
        const sram::Read_result r = sim.simulate(
            t, sram::Cell_electrical::n10(t.feol), wires, cfg,
            session.options().timing, session.options().netlist,
            session.options().read);
        ASSERT_TRUE(r.crossed);
        ASSERT_GT(r.steps.newton_iterations, 0);
        if (accuracy == sram::Sim_accuracy::fast) {
            EXPECT_GT(r.steps.bypass_hits, 0);
            EXPECT_LT(r.steps.lu_factorizations, r.steps.newton_iterations);
        } else {
            EXPECT_EQ(r.steps.lu_factorizations, r.steps.newton_iterations);
            EXPECT_EQ(r.steps.bypass_hits, 0);
        }
    }
}

// --- paper-row agreement -----------------------------------------------------

TEST(SolverAgreement, FastBypassStaysInCalibrationBudget)
{
    // Fig. 4 read rows (small prefix; bench_perf_solver gates the full
    // set to 10x1024): fast (adaptive + bypass) vs the reference
    // (fixed-step + direct) oracle, held to the 0.5% budget.
    const core::Study_session session;
    constexpr int sizes[] = {16, 64};
    const Query base = Query(Metric::read_td)
                           .over_word_lines(tech::Patterning_option::le3,
                                            sizes);
    const core::Result_table reference = session.run(
        Query(base).with_accuracy(sram::Sim_accuracy::reference));
    const core::Result_table fast =
        session.run(Query(base).with_accuracy(sram::Sim_accuracy::fast));
    ASSERT_EQ(fast.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const auto& ref = reference.as<core::Read_row>(i);
        const auto& fst = fast.as<core::Read_row>(i);
        EXPECT_LE(util::rel_diff(ref.td_nominal, fst.td_nominal), 5e-3);
        EXPECT_LE(util::rel_diff(ref.td_varied, fst.td_varied), 5e-3);
        EXPECT_LE(std::fabs(ref.tdp_percent - fst.tdp_percent), 0.5);
    }
}

// --- thread determinism ------------------------------------------------------

TEST(SolverDeterminism, BitwiseIdenticalAcrossThreadsPerTier)
{
    // Bypass's factorization state evolves only from solve inputs, so
    // the 1/2/8-thread bitwise contract must hold under the fast tier
    // exactly as it does under the direct-solver reference tier.
    for (const sram::Sim_accuracy accuracy :
         {sram::Sim_accuracy::reference, sram::Sim_accuracy::fast}) {
        auto run = [&](int threads) {
            const core::Study_session session;
            return session.run(
                Query(Metric::read_td)
                    .over_word_lines(tech::Patterning_option::le3, kSizes)
                    .with_accuracy(accuracy)
                    .on(core::Runner_options{threads}));
        };
        const core::Result_table serial = run(1);
        for (const int threads : {2, 8}) {
            EXPECT_TRUE(run(threads) == serial)
                << "accuracy " << sram::to_string(accuracy) << " threads "
                << threads;
        }
    }
}

// --- large-array smoke -------------------------------------------------------

struct Column_fixture {
    tech::Technology t = tech::n10();
    sram::Cell_electrical cell = sram::Cell_electrical::n10(t.feol);
    extract::Extractor ex{t.metal1};
    sram::Array_config cfg;
    sram::Bitline_electrical wires;

    explicit Column_fixture(int n)
    {
        cfg.word_lines = n;
        cfg.victim_pair = 2;
        const geom::Wire_array arr = sram::build_metal1_array(t, cfg);
        wires = sram::roll_up_nominal(ex, arr, t, cfg);
    }
};

TEST(SolverLargeArray, ReferenceTransientSmokeAt4096)
{
    // A 4k-row column must stay solvable by the fixed-step reference
    // oracle.  A 4096-cell bitline is past the paper's measurable range
    // (the differential does not reach the sense threshold inside any
    // sane window), so this is a solver smoke test: the transient must
    // complete with healthy counters and physical voltages, not produce
    // a td.  Reduced step count and no window retries keep it a smoke
    // test, not a benchmark.
    Column_fixture f(4096);
    sram::Read_netlist net =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    sram::Read_options opts;
    opts.accuracy = sram::Sim_accuracy::reference;
    opts.nominal_steps = 400;
    opts.max_retries = 0;
    const sram::Read_result r = sram::simulate_read(net, opts);
    ASSERT_GT(r.steps.accepted, 0);
    EXPECT_EQ(r.steps.bypass_hits, 0);  // reference runs direct
    EXPECT_EQ(r.steps.lu_factorizations, r.steps.newton_iterations);
    // The accessed bitline discharges below its complement; both stay
    // inside the rail.
    EXPECT_LE(r.bl_final, r.blb_final);
    EXPECT_LE(r.blb_final, f.t.feol.vdd + 1e-6);
    EXPECT_GE(r.bl_final, -1e-6);
}

} // namespace
