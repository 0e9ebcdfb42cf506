// The paper's study end to end through Study_session::run: Table I rows,
// overlay-budget scaling, Monte-Carlo ordering, and the session's
// geometry and formula building blocks.
#include <gtest/gtest.h>

#include "core/query.h"
#include "core/session.h"

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;
using core::Worst_case_row;
using P = tech::Patterning_option;

// One session shared by the suite: its memos make repeated queries cheap.
const core::Study_session& session()
{
    static const core::Study_session instance;
    return instance;
}

TEST(Study, TableOneLe3RowMatchesPaper)
{
    const auto row = session()
                         .run(Query(Metric::worst_case_rc)
                                  .with_case({P::le3, 64}))
                         .as<Worst_case_row>(0);
    // Paper: Cbl +61.56%, Rbl -10.36%.  Calibration tolerance: a couple
    // of percentage points.
    EXPECT_NEAR(row.cbl_percent, 61.56, 3.0);
    EXPECT_NEAR(row.rbl_percent, -10.36, 1.0);
    EXPECT_NE(row.corner.find("cd_mask_a=+3s"), std::string::npos);
    EXPECT_NE(row.corner.find("overlay"), std::string::npos);
}

TEST(Study, TableOneSadpRowMatchesPaper)
{
    const auto row = session()
                         .run(Query(Metric::worst_case_rc)
                                  .with_case({P::sadp, 64}))
                         .as<Worst_case_row>(0);
    EXPECT_NEAR(row.cbl_percent, 4.01, 1.5);
    EXPECT_NEAR(row.rbl_percent, -18.19, 2.0);
    // Anti-correlated rail.
    EXPECT_GT(row.vss_r_percent, 10.0);
}

TEST(Study, TableOneEuvRowMatchesPaper)
{
    const auto row = session()
                         .run(Query(Metric::worst_case_rc)
                                  .with_case({P::euv, 64}))
                         .as<Worst_case_row>(0);
    EXPECT_NEAR(row.cbl_percent, 6.65, 1.5);
    EXPECT_NEAR(row.rbl_percent, -10.36, 1.0);
    EXPECT_EQ(row.corner, "cd=+3s");
}

TEST(Study, Le3AndEuvShareRblSensitivity)
{
    // Both worst cases put +3 nm on the victim wire.
    const auto rows = session().run(Query(Metric::worst_case_rc)
                                        .with_case({P::le3, 64})
                                        .with_case({P::euv, 64}));
    EXPECT_NEAR(rows.as<Worst_case_row>(0).rbl_percent,
                rows.as<Worst_case_row>(1).rbl_percent, 1e-9);
}

TEST(Study, OverlayBudgetScalesLe3Severity)
{
    const auto rows = session().run(Query(Metric::worst_case_rc)
                                        .with_case({P::le3, 64, 3e-9})
                                        .with_case({P::le3, 64, 8e-9}));
    const auto& tight = rows.as<Worst_case_row>(0);
    const auto& loose = rows.as<Worst_case_row>(1);
    EXPECT_LT(tight.cbl_percent, 0.5 * loose.cbl_percent);
    // Overlay budget does not touch widths.
    EXPECT_NEAR(tight.rbl_percent, loose.rbl_percent, 1e-9);
}

TEST(Study, OlOverrideIgnoredForSingleMaskOptions)
{
    const auto rows = session().run(Query(Metric::worst_case_rc)
                                        .with_case({P::euv, 64, 3e-9})
                                        .with_case({P::euv, 64, 8e-9}));
    EXPECT_NEAR(rows.as<Worst_case_row>(0).cbl_percent,
                rows.as<Worst_case_row>(1).cbl_percent, 1e-12);
}

TEST(Study, DecomposedArrayHasPaperShape)
{
    const auto arr = session().decomposed_array(P::le3, 64);
    EXPECT_EQ(arr.size(), 40u);  // 10 pairs x 4 tracks
    EXPECT_NE(arr[0].color, geom::Mask_color::unassigned);
}

TEST(Study, FormulaParamsMatchPaperRegime)
{
    const auto p = session().formula_params(64);
    EXPECT_NEAR(p.a, 0.105, 1e-3);
    // Wire share of per-cell capacitance ~30% (Table III regime).
    const double share = p.c_bl_cell / (p.c_bl_cell + p.c_fe);
    EXPECT_GT(share, 0.2);
    EXPECT_LT(share, 0.45);
}

TEST(Study, McTdpReproducibleAndOrdered)
{
    mc::Distribution_options mo;
    mo.samples = 2000;
    const Query le3_query =
        Query(Metric::mc_tdp).with_case({P::le3, 64, 8e-9}).with_mc(mo);
    const auto le3 =
        session().run(le3_query).as<mc::Tdp_distribution>(0);
    const auto le3_again =
        session().run(le3_query).as<mc::Tdp_distribution>(0);
    EXPECT_DOUBLE_EQ(le3.summary.stddev, le3_again.summary.stddev);

    const auto sadp =
        session()
            .run(Query(Metric::mc_tdp).with_case({P::sadp, 64}).with_mc(mo))
            .as<mc::Tdp_distribution>(0);
    EXPECT_GT(le3.summary.stddev, 2.0 * sadp.summary.stddev);
}

TEST(Study, McSigmaGrowsWithOverlayBudget)
{
    mc::Distribution_options mo;
    mo.samples = 3000;
    double prev = 0.0;
    for (double ol : {3e-9, 5e-9, 7e-9, 8e-9}) {
        const auto d = session()
                           .run(Query(Metric::mc_tdp)
                                    .with_case({P::le3, 64, ol})
                                    .with_mc(mo))
                           .as<mc::Tdp_distribution>(0);
        EXPECT_GT(d.summary.stddev, prev) << "OL " << ol;
        prev = d.summary.stddev;
    }
}

TEST(Study, WorstCaseFullProvidesGeometry)
{
    const auto wc = session().worst_case_full(P::le3, 16);
    EXPECT_EQ(wc.realized.size(), 40u);
    EXPECT_GT(wc.corner.metric, 0.0);
    // Geometry is actually distorted.
    bool any_shift = false;
    const auto nominal = session().decomposed_array(P::le3, 16);
    for (std::size_t i = 0; i < wc.realized.size(); ++i) {
        if (wc.realized[i].y_center != nominal[i].y_center) any_shift = true;
    }
    EXPECT_TRUE(any_shift);
}

TEST(Study, VictimPairDefaultsToMaskACompatible)
{
    EXPECT_EQ(session().options().array.victim_pair, 6);
    EXPECT_EQ(session().options().array.bl_pairs, 10);
}

} // namespace
