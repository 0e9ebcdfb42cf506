// The query layer (PR 5): a single-case query equals its row of a batch,
// the formula and disturb metrics run deterministically through the same
// generic run() path at 1/2/8 threads, the session memos run each
// transient once, and Result_table's typed access must round-trip.
#include "core/query.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <variant>

#include <gtest/gtest.h>

#include "core/session.h"
#include "util/contracts.h"

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;
using core::Query_case;

// Cheap-but-real sweep, same sizes as the read/write-sweep tests.
constexpr int kSizes[] = {8, 16, 24};

// The determinism contract asks for bitwise equality at 1/2/8 threads.
constexpr int kThreadCounts[] = {1, 2, 8};

// --- single case vs batch ---------------------------------------------------

TEST(QueryWorstCaseRc, SingleCaseEqualsItsRowOfTheAllOptionsBatch)
{
    // Fresh sessions: the single-case row is enumerated on its own, not
    // served from the batch's memo.
    for (const int threads : kThreadCounts) {
        const core::Runner_options runner{threads};
        const auto batch = core::Study_session().run(
            Query(Metric::worst_case_rc)
                .over_options(tech::all_patterning_options, 64)
                .on(runner));
        ASSERT_EQ(batch.size(), tech::all_patterning_options.size());

        const auto single = core::Study_session().run(
            Query(Metric::worst_case_rc)
                .with_case({tech::all_patterning_options[0], 64})
                .on(runner));
        EXPECT_EQ(single.as<core::Worst_case_row>(0),
                  batch.as<core::Worst_case_row>(0))
            << "threads=" << threads;
    }
}

// --- the nominal tw formula --------------------------------------------------

TEST(QueryNominalTw, FormulaIsARealTimeBelowTheSimulation)
{
    // The registered write formula underestimates SPICE like the td
    // formula does, but is a real time.
    const auto table = core::Study_session().run(
        Query(Metric::nominal_tw)
            .over_word_lines(tech::Patterning_option::euv, kSizes));
    ASSERT_EQ(table.size(), std::size(kSizes));
    for (std::size_t i = 0; i < table.size(); ++i) {
        const auto& row = table.as<core::Nominal_tw_row>(i);
        EXPECT_GT(row.tw_formula, 0.0) << "size=" << kSizes[i];
        EXPECT_LT(row.tw_formula, row.tw_simulation) << "size=" << kSizes[i];
    }
}

// --- the formula twp engine --------------------------------------------------

TEST(QueryTwpFormula, DeterministicCheapAndOrdered)
{
    // The registered analytic tw model as the sample engine: read-MC
    // sample counts with no transient in the loop.
    mc::Distribution_options mo;
    mo.samples = 4000;
    mo.seed = 11;

    const core::Study_session session;
    core::Result_table serial;
    for (const int threads : kThreadCounts) {
        mc::Distribution_options threaded = mo;
        threaded.runner.threads = threads;
        const auto table = session.run(
            Query(Metric::mc_twp)
                .over_options(tech::all_patterning_options, 16)
                .with_mc(threaded)
                .with_twp_engine(core::Twp_engine::formula));
        if (threads == 1) {
            serial = table;
        } else {
            EXPECT_EQ(table, serial) << "threads=" << threads;
        }
    }

    // LE3 spreads twp wider than EUV, like the read penalty.
    const auto& le3 = serial.as<mc::Tdp_distribution>(0);
    const auto& euv = serial.as<mc::Tdp_distribution>(2);
    EXPECT_GT(le3.summary.stddev, euv.summary.stddev);
    EXPECT_GT(le3.summary.stddev, 0.0);
}

// --- the disturb metric ------------------------------------------------------

TEST(QueryDisturb, DeterministicAtAnyThreadCount)
{
    core::Result_table serial;
    for (const int threads : kThreadCounts) {
        const core::Study_session session;
        const auto table = session.run(
            Query(Metric::disturb)
                .over_word_lines(tech::Patterning_option::sadp, kSizes)
                .on(core::Runner_options{threads}));
        if (threads == 1) {
            serial = table;
        } else {
            EXPECT_EQ(table, serial) << "threads=" << threads;
        }
    }

    // The rows are physical: a real, non-destructive bump.
    const double vdd = tech::n10().feol.vdd;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const auto& row = serial.as<core::Disturb_row>(i);
        EXPECT_GT(row.v_bump_nominal, 0.02 * vdd);
        EXPECT_LT(row.v_bump_nominal, 0.4 * vdd);
        EXPECT_GT(row.v_bump_varied, 0.0);
        EXPECT_TRUE(std::isfinite(row.disturb_percent));
    }
}

TEST(QueryDisturb, SharesTheWorstCaseMemoWithReadAndWrite)
{
    // The disturb metric reuses the same promise-backed corner memo as
    // every other metric: one enumeration per (option, n, ol) key across
    // disturb, read and write queries.
    const core::Study_session session;
    EXPECT_EQ(session.corner_search_count(), 0u);

    const Query_case qc{tech::Patterning_option::sadp, 8};
    session.run(Query(Metric::disturb).with_case(qc));
    EXPECT_EQ(session.corner_search_count(), 1u);
    session.run(Query(Metric::read_td).with_case(qc));
    session.run(Query(Metric::write_tw).with_case(qc));
    EXPECT_EQ(session.corner_search_count(), 1u);
}

TEST(QueryNominalMemo, WriteTwSimulatesEachNominalExactlyOnce)
{
    // The three options at one n race for the same nominal write on a
    // 4-thread runner; the single-flight memo simulates it once.
    core::Study_options opts;
    opts.cache.mode = core::Cache_mode::off;
    const core::Study_session session(tech::n10(), opts);
    const std::vector<int> sizes = {16, 64, 256};
    Query q(Metric::write_tw);
    for (const auto option : tech::all_patterning_options) {
        q.over_word_lines(option, sizes);
    }
    const auto table = session.run(q.on(core::Runner_options{4}));
    ASSERT_EQ(table.size(), 3 * sizes.size());
    EXPECT_EQ(session.nominal_simulation_count(), sizes.size());
    for (std::size_t i = sizes.size(); i < table.size(); ++i) {
        EXPECT_EQ(table.as<core::Write_row>(i).tw_nominal,
                  table.as<core::Write_row>(i % sizes.size()).tw_nominal);
    }

    // Repeats are memo hits.
    session.run(q.on(core::Runner_options{4}));
    EXPECT_EQ(session.nominal_simulation_count(), sizes.size());
}

// --- the worst-corner transient memo and the longest-first plan -------------

core::Study_options uncached_options()
{
    core::Study_options opts;
    opts.cache.mode = core::Cache_mode::off;
    return opts;
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(QueryVariedMemo, PaperQuerySetRunsEachTransientOnce)
{
    // The paper's query set (Tables I-III, Fig. 4, the write and disturb
    // extensions) on one fresh uncached session at 4 threads: every
    // distinct SPICE transient runs once.  read_td and worst_case_tdp
    // share their 12 worst-corner reads; the nominal reads are shared by
    // nominal_td, read_td and worst_case_tdp.
    using P = tech::Patterning_option;
    const core::Runner_options runner{4};
    const std::vector<int> n4 = {16, 64, 256, 1024};
    const std::vector<int> n3 = {16, 64, 256};
    Query read(Metric::read_td);
    Query tdp(Metric::worst_case_tdp);
    Query write(Metric::write_tw);
    for (const P option : tech::all_patterning_options) {
        read.over_word_lines(option, n4);
        tdp.over_word_lines(option, n4);
        write.over_word_lines(option, n3);
    }

    const core::Study_session session(tech::n10(), uncached_options());
    session.run(Query(Metric::worst_case_rc)
                    .over_options(tech::all_patterning_options, 64)
                    .on(runner));
    session.run(Query(Metric::nominal_td).over_word_lines(P::euv, n4).on(
        runner));
    const auto reads = session.run(Query(read).on(runner));
    const auto tdps = session.run(Query(tdp).on(runner));
    session.run(Query(write).on(runner));
    session.run(Query(Metric::disturb).over_word_lines(P::le3, n3).on(
        runner));

    // 4 nominal reads + 3 nominal writes + 3 nominal disturbs; 12 + 9 + 3
    // worst-corner transients; one corner search per (option, n).
    EXPECT_EQ(session.nominal_simulation_count(), 10u);
    EXPECT_EQ(session.worst_corner_simulation_count(), 24u);
    EXPECT_EQ(session.corner_search_count(), 12u);

    ASSERT_EQ(reads.size(), tdps.size());
    for (std::size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(bits_of(tdps.as<core::Tdp_row>(i).tdp_simulation),
                  bits_of(reads.as<core::Read_row>(i).tdp_percent))
            << "case " << i;
    }

    // The shared memo changes no byte: worst_case_tdp alone, on a fresh
    // session, produces the same rows.
    const core::Study_session alone(tech::n10(), uncached_options());
    EXPECT_EQ(alone.run(Query(tdp).on(runner)), tdps);
}

TEST(QueryVariedMemo, PlanRowsBitwiseIdenticalAtAnyThreadCount)
{
    // Nominal jobs plus case jobs, longest first, on fresh sessions: the
    // rows are keyed by case, so every thread count reproduces the
    // serial tables exactly.
    const std::vector<int> sizes = {16, 64, 256};
    std::vector<Query> queries;
    for (const Metric m : {Metric::read_td, Metric::write_tw,
                           Metric::disturb, Metric::worst_case_tdp}) {
        Query q(m);
        for (const auto option : tech::all_patterning_options) {
            q.over_word_lines(option, sizes);
        }
        queries.push_back(q);
    }

    std::vector<core::Result_table> serial;
    for (const int threads : {1, 2, 4, 8}) {
        const core::Study_session session(tech::n10(), uncached_options());
        for (std::size_t k = 0; k < queries.size(); ++k) {
            const auto table =
                session.run(Query(queries[k]).on(core::Runner_options{
                    threads}));
            ASSERT_EQ(table.size(), queries[k].cases.size());
            if (threads == 1) {
                serial.push_back(table);
            } else {
                EXPECT_EQ(table, serial[k])
                    << to_string(queries[k].metric) << " threads="
                    << threads;
            }
        }
        // worst_case_tdp reused every read of read_td.
        EXPECT_EQ(session.worst_corner_simulation_count(),
                  3 * 3 * sizes.size());
    }
}

TEST(QueryVariedMemo, FailedWorstCornerThrowsAndUnpublishes)
{
    // A read window that the nominal read crosses but the slower
    // worst-corner read does not: the worst-corner transient fails its
    // postcondition while the nominal job succeeds.
    const Query q = Query(Metric::read_td)
                        .with_case({tech::Patterning_option::le3, 64})
                        .on(core::Runner_options{2});
    const auto probe =
        core::Study_session(tech::n10(), uncached_options()).run(q);
    const auto& row = probe.as<core::Read_row>(0);
    ASSERT_GT(row.td_varied, 1.02 * row.td_nominal);

    core::Study_options opts = uncached_options();
    opts.read.min_window = 0.5 * (row.td_nominal + row.td_varied);
    opts.read.window_per_cell = 0.0;
    opts.read.max_retries = 0;
    const core::Study_session session(tech::n10(), opts);

    EXPECT_THROW(session.run(q), util::Postcondition_error);
    EXPECT_EQ(session.worst_corner_simulation_count(), 1u);
    // The failed transient must un-publish its memo slot: the retry
    // simulates again (and throws again) instead of serving the stored
    // exception without recomputing.
    EXPECT_THROW(session.run(q), util::Postcondition_error);
    EXPECT_EQ(session.worst_corner_simulation_count(), 2u);
}

// --- accuracy override -------------------------------------------------------

TEST(QueryAccuracy, OverrideMatchesPinnedSessionAndKeepsMemosSeparate)
{
    const Query query = Query(Metric::read_td)
                            .over_word_lines(tech::Patterning_option::euv,
                                             std::vector<int>{8, 16});

    core::Study_options pinned;
    pinned.read.accuracy = sram::Sim_accuracy::reference;
    const core::Study_session reference_session(tech::n10(), pinned);
    const auto pinned_table = reference_session.run(query);

    // One mixed session pinned to the fast engine (explicitly — the
    // reference-policy ctest leg overrides the process default through
    // the environment): a reference-override query must equal the
    // pinned session bitwise, and the fast rows must be unaffected by
    // the reference rows sharing the nominal memo map.
    core::Study_options fast_opts;
    fast_opts.read.accuracy = sram::Sim_accuracy::fast;
    const core::Study_session mixed(tech::n10(), fast_opts);
    const auto fast_before = mixed.run(query);
    const auto overridden = mixed.run(
        Query(query).with_accuracy(sram::Sim_accuracy::reference));
    const auto fast_after = mixed.run(query);

    EXPECT_EQ(overridden, pinned_table);
    EXPECT_EQ(fast_before, fast_after);
    // The engines genuinely differ, so the memo keying is load-bearing.
    EXPECT_NE(overridden.as<core::Read_row>(0).td_nominal,
              fast_before.as<core::Read_row>(0).td_nominal);
}

// --- Result_table typed access -----------------------------------------------

TEST(ResultTable, TypedAccessRoundTripsAndMismatchThrows)
{
    const core::Study_session session;
    const auto table = session.run(
        Query(Metric::nominal_td)
            .over_word_lines(tech::Patterning_option::euv,
                             std::vector<int>{8, 16}));

    ASSERT_EQ(table.size(), 2u);
    EXPECT_EQ(table.metric(), Metric::nominal_td);

    // Axes round-trip, with the default word_lines resolved.
    EXPECT_EQ(table.axes(0).word_lines, 8);
    EXPECT_EQ(table.axes(1).word_lines, 16);

    // as<Row> == raw variant == column<Row> view.
    const auto& row = table.as<core::Nominal_td_row>(1);
    EXPECT_EQ(row, std::get<core::Nominal_td_row>(table.raw(1)));
    const auto rows = table.column<core::Nominal_td_row>();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1], row);
    EXPECT_GT(rows[1].td_simulation, rows[0].td_simulation);

    // Wrong row type fails loudly, wrong index throws.
    EXPECT_THROW(table.as<core::Read_row>(0), std::bad_variant_access);
    EXPECT_THROW(table.raw(2), util::Precondition_error);
    EXPECT_THROW(table.axes(2), util::Precondition_error);
}

TEST(ResultTable, DefaultWordLinesResolveToSessionDefault)
{
    core::Study_options opts;
    opts.array.word_lines = 8;
    const core::Study_session session(tech::n10(), opts);
    const auto table = session.run(
        Query(Metric::nominal_td)
            .with_case({tech::Patterning_option::euv, 0}));
    EXPECT_EQ(table.axes(0).word_lines, 8);
}

TEST(ResultTable, EmptyQueryYieldsEmptyTable)
{
    const core::Study_session session;
    const auto table = session.run(Query(Metric::read_td));
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.size(), 0u);
}

// --- registry sanity ---------------------------------------------------------

TEST(MetricRegistry, DescriptorsMatchTheEnum)
{
    for (const Metric m :
         {Metric::worst_case_rc, Metric::read_td, Metric::nominal_td,
          Metric::worst_case_tdp, Metric::mc_tdp, Metric::write_tw,
          Metric::nominal_tw, Metric::mc_twp, Metric::disturb}) {
        const core::Metric_descriptor& d = core::metric_descriptor(m);
        EXPECT_EQ(d.name, core::to_string(m));
        EXPECT_NE(d.eval, nullptr);
    }
    // The per-case-parallel metrics vs the internally-parallel ones.
    EXPECT_FALSE(core::metric_descriptor(Metric::read_td).serial_cases);
    EXPECT_TRUE(core::metric_descriptor(Metric::mc_tdp).serial_cases);
    EXPECT_TRUE(
        core::metric_descriptor(Metric::worst_case_rc).serial_cases);
}

} // namespace
