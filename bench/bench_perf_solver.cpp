// Newton-solver scaling: direct (LU every iteration) vs bypass
// (factorization-reuse Newton with device-level bypass) on nominal read
// transients of 10x{256, 1024, 4096, 8192} columns, plus the gates that
// let bypass ship as the fast tier's solver: the 0.5% fast-vs-reference
// agreement budget and the bitwise thread-count determinism contract.
//
// Three sections land in BENCH_solver.json:
//
//   - "solver_matrix": per (word_lines, solver) wall time of one nominal
//     read transient under fast step control on a warmed workspace
//     (netlist build and symbolic factorization excluded), with the
//     Step_stats solver counters (newton_iterations / lu_factorizations /
//     bypass_hits) that prove WHERE the speedup comes from — bypass must
//     show lu_factorizations well under newton_iterations.  The solver
//     is pinned on spice::Transient_options, the only place a caller
//     picks it directly.
//   - "agreement_bypass": fast (adaptive + bypass) vs the reference
//     (fixed-step + direct) oracle over the canonical Fig. 4 read set
//     (every patterning option, n up to 1024), held to the 0.5% budget.
//   - "per_policy_deterministic": 1/2/8-thread bitwise Result_table
//     identity of a read sweep under each accuracy tier.
//
//   $ ./bench_perf_solver [max_word_lines]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_driver.h"
#include "core/session.h"
#include "sram/bitline_model.h"
#include "sram/read_sim.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace mpsram;

constexpr spice::Newton_solver solvers[] = {spice::Newton_solver::direct,
                                            spice::Newton_solver::bypass};

const char* solver_name(spice::Newton_solver solver)
{
    return solver == spice::Newton_solver::direct ? "direct" : "bypass";
}

struct Matrix_entry {
    int word_lines = 0;
    spice::Newton_solver solver = spice::Newton_solver::direct;
    double wall_s = 0.0;
    double speedup_vs_direct = 1.0;
    spice::Step_stats steps;
};

/// One nominal read transient per (word_lines, solver) under fast step
/// control on a warmed workspace, so the measured wall is the transient
/// solve alone.
std::vector<Matrix_entry> run_solver_matrix(const std::vector<int>& sizes)
{
    const core::Study_session session;
    const tech::Technology& t = session.technology();
    const auto cell = sram::Cell_electrical::n10(t.feol);
    const sram::Read_options read;  // the read path's window and steps

    std::vector<Matrix_entry> matrix;
    for (const int n : sizes) {
        sram::Array_config cfg = session.options().array;
        cfg.word_lines = n;
        const geom::Wire_array nominal =
            session.decomposed_array(tech::Patterning_option::euv, n);
        const sram::Bitline_electrical wires =
            sram::roll_up_nominal(session.extractor(), nominal, t, cfg);
        sram::Read_netlist net = sram::build_read_netlist(t, cell, wires, cfg);

        // The read path's first window only: at 4k/8k rows the
        // differential never reaches the sense threshold, so its
        // window-doubling retries would cascade up to four full
        // transients into one cell of the matrix.  One transient per
        // (n, solver) keeps the walls comparable across n.
        spice::Transient_options topts;
        topts.tstop = net.timing.wl_mid() +
                      std::max(read.min_window,
                               read.window_per_cell * static_cast<double>(n));
        topts.nominal_steps = read.nominal_steps;
        topts.method = read.method;
        topts.dc = net.dc;
        sram::apply_sim_accuracy(topts, sram::Sim_accuracy::fast);
        const std::vector<spice::Node> probes = {net.bl_sense, net.blb_sense};
        spice::Transient_workspace workspace;
        topts.newton.solver = spice::Newton_solver::direct;
        spice::run_transient(net.circuit, probes, topts, workspace);

        double direct_wall = 0.0;
        for (const spice::Newton_solver solver : solvers) {
            topts.newton.solver = solver;
            const auto t0 = std::chrono::steady_clock::now();
            const spice::Transient_result waves =
                spice::run_transient(net.circuit, probes, topts, workspace);
            Matrix_entry e;
            e.word_lines = n;
            e.solver = solver;
            e.wall_s =
                bench::seconds_of(std::chrono::steady_clock::now() - t0);
            e.steps = waves.steps();
            if (solver == spice::Newton_solver::direct) {
                direct_wall = e.wall_s;
            }
            e.speedup_vs_direct = direct_wall / e.wall_s;
            matrix.push_back(e);
        }
    }
    return matrix;
}

void print_solver_matrix(const std::vector<Matrix_entry>& matrix)
{
    util::Table table({"word lines", "solver", "wall [s]",
                       "speedup vs direct", "newton iters", "lu factors",
                       "bypass hits"});
    for (const Matrix_entry& e : matrix) {
        table.add_row({std::to_string(e.word_lines),
                       solver_name(e.solver),
                       util::fmt_fixed(e.wall_s, 3),
                       util::fmt_fixed(e.speedup_vs_direct, 2) + "x",
                       std::to_string(e.steps.newton_iterations),
                       std::to_string(e.steps.lu_factorizations),
                       std::to_string(e.steps.bypass_hits)});
    }
    std::cout << table.render() << '\n';
}

/// 1/2/8-thread bitwise identity of a read sweep under `accuracy` (and
/// so under its Newton solver).
bool accuracy_deterministic(sram::Sim_accuracy accuracy)
{
    const std::vector<int> sizes = {16, 24, 32, 48, 64, 96, 128};
    const auto run = [&](int threads) {
        const core::Study_session session;
        return session.run(
            core::Query(core::Metric::read_td)
                .over_word_lines(tech::Patterning_option::le3, sizes)
                .with_accuracy(accuracy)
                .on(core::Runner_options{threads}));
    };
    const core::Result_table serial = run(1);
    bool identical = true;
    for (const int threads : {2, 8}) {
        identical = identical && run(threads) == serial;
    }
    std::cout << "  " << sram::to_string(accuracy)
              << ": 1/2/8-thread bitwise identity "
              << (identical ? "holds" : "BROKEN") << '\n';
    return identical;
}

std::string json_of(const bench::Agreement& a)
{
    return "{\"max_rel\": " + std::to_string(a.max_rel) +
           ", \"max_points\": " + std::to_string(a.max_points) +
           ", \"within_budget\": " +
           (a.within_budget() ? "true" : "false") + "}";
}

} // namespace

int main(int argc, char** argv)
{
    const int max_n = argc > 1 ? std::atoi(argv[1]) : 1024;
    if (max_n < 256) {
        std::cerr << "usage: bench_perf_solver [max_word_lines>=256]\n";
        return 2;
    }

    std::vector<int> matrix_sizes;
    for (const int n : {256, 1024, 4096, 8192}) {
        if (n <= max_n) matrix_sizes.push_back(n);
    }

    std::cout << "Newton-solver scaling: nominal EUV read, n in {256, 1024, "
                 "4096, 8192} up to 10x"
              << max_n << "\n"
              << "Solvers: direct = per-iteration LU oracle (reference "
                 "tier), bypass =\nfactorization-reuse Newton (fast tier; "
                 "see spice/analysis.h)\n\n";

    // --- per-(n, solver) wall / counter matrix at fast step control ----------
    const std::vector<Matrix_entry> matrix = run_solver_matrix(matrix_sizes);
    print_solver_matrix(matrix);

    // --- thread-scaling grid of the production default tier ------------------
    std::vector<int> sweep_sizes;
    for (const int n : {64, 96, 128, 192, 256, 384, 512, 768, 1024}) {
        if (n <= max_n) sweep_sizes.push_back(n);
    }
    bench::Scaling_config cfg;
    cfg.bench_name = "bench_perf_solver";
    cfg.workload = "euv_read_td_solver_tiers";
    cfg.json_path = "BENCH_solver.json";
    cfg.sims_per_row = 2.0;
    cfg.run = [&sweep_sizes](int threads, sram::Sim_accuracy accuracy) {
        const core::Study_session session;
        return session.run(
            core::Query(core::Metric::read_td)
                .over_word_lines(tech::Patterning_option::euv, sweep_sizes)
                .with_accuracy(accuracy)
                .on(core::Runner_options{threads}));
    };
    const bench::Scaling_outcome outcome = bench::run_thread_scaling(cfg);

    // --- fast (bypass) vs the reference (direct) oracle ----------------------
    constexpr int fig4_sizes[] = {16, 64, 256, 1024};
    const core::Runner_options agreement_runner{
        util::Thread_pool::hardware_threads()};
    const bench::Agreement gate_bypass =
        bench::run_option_agreement([&](tech::Patterning_option option) {
            return core::Query(core::Metric::read_td)
                .over_word_lines(option, fig4_sizes)
                .on(agreement_runner);
        });
    std::cout << "Checked over the full Fig. 4 set (all options, n up to "
                 "1024):\nbypass solver —\n";
    bench::report_agreement(gate_bypass, "td");

    // --- bitwise thread determinism per accuracy tier -------------------------
    std::cout << "\nPer-tier determinism (read_td sweep, LE3):\n";
    bool deterministic = true;
    for (const sram::Sim_accuracy accuracy :
         {sram::Sim_accuracy::reference, sram::Sim_accuracy::fast}) {
        deterministic = accuracy_deterministic(accuracy) && deterministic;
    }

    // --- cold-then-warm result-cache smoke ------------------------------------
    // The warm rerun of the cached agreement-style sweep must skip every
    // corner search and surface fit and return bitwise-identical rows —
    // the acceptance gate of the persistence layer (core/result_cache.h).
    std::cout << '\n';
    static constexpr int smoke_sizes[] = {16, 64, 256};
    const bench::Cache_smoke smoke = bench::run_cache_smoke(
        [&agreement_runner](const core::Study_session& session) {
            return session.run(
                core::Query(core::Metric::read_td)
                    .over_word_lines(tech::Patterning_option::le3,
                                     smoke_sizes)
                    .with_accuracy(sram::Sim_accuracy::fast)
                    .on(agreement_runner));
        },
        "BENCH_solver.cache");

    // --- BENCH_solver.json ----------------------------------------------------
    std::vector<std::string> extra;
    std::string rows = "\"solver_matrix\": [";
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        const Matrix_entry& e = matrix[i];
        rows += std::string("\n    {\"word_lines\": ") +
                std::to_string(e.word_lines) + ", \"solver\": \"" +
                solver_name(e.solver) +
                "\", \"wall_s\": " + std::to_string(e.wall_s) +
                ", \"speedup_vs_direct\": " +
                std::to_string(e.speedup_vs_direct) +
                ", \"newton_iterations\": " +
                std::to_string(e.steps.newton_iterations) +
                ", \"lu_factorizations\": " +
                std::to_string(e.steps.lu_factorizations) +
                ", \"bypass_hits\": " + std::to_string(e.steps.bypass_hits) +
                "}" + (i + 1 < matrix.size() ? "," : "");
    }
    rows += "\n  ],";
    extra.push_back(rows);
    extra.push_back("\"agreement_bypass\": " + json_of(gate_bypass) + ",");
    extra.push_back(
        std::string("\"per_policy_deterministic\": ") +
        (deterministic ? "true" : "false") + ",");
    for (std::string& field : bench::cache_smoke_fields(smoke)) {
        extra.push_back(std::move(field));
    }

    spice::Step_stats steps[2];
    bench::measure_nominal_steps<sram::Read_sim_context>(sweep_sizes.back(),
                                                         steps);
    std::cout << "\nStep counts, nominal read at 10x" << sweep_sizes.back()
              << " (fast row: bypass solver, reference row: direct):\n";
    bench::print_step_table(steps);

    bench::write_bench_json(cfg, outcome, &gate_bypass, steps,
                            matrix_sizes.back(), extra);
    return outcome.all_identical && deterministic &&
                   gate_bypass.within_budget() && smoke.passed()
               ? 0
               : 1;
}
