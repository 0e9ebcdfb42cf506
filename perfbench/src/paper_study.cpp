// paper_study: the paper's query set on a fresh uncached session per pass.
//
// SPICE- and sram-bound, with uneven cases (the n=1024 columns dominate)
// and no serialization, so solver, assembly and scheduling changes show
// here and nowhere else.  The workload seed does not enter: the study is
// deterministic, and every pass must reproduce the serial pass bitwise.
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/session.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using namespace mpsram;
using P = tech::Patterning_option;

struct Named_query {
    std::string name;
    core::Query query;
    std::size_t corner_cases = 0;  ///< cases that need a worst corner
};

std::vector<Named_query> paper_queries(int threads)
{
    const core::Runner_options runner{threads};
    const std::vector<P> options(tech::all_patterning_options.begin(),
                                 tech::all_patterning_options.end());
    const std::vector<int> n4 = {16, 64, 256, 1024};
    const std::vector<int> n3 = {16, 64, 256};

    std::vector<Named_query> out;
    auto add = [&](std::string name, core::Query q, std::size_t corners) {
        out.push_back({std::move(name), q.on(runner), corners});
    };
    add("worst_case_rc",
        core::Query(core::Metric::worst_case_rc).over_options(options, 64), 3);
    add("nominal_td",
        core::Query(core::Metric::nominal_td).over_word_lines(P::euv, n4), 0);
    core::Query read(core::Metric::read_td);
    core::Query tdp(core::Metric::worst_case_tdp);
    core::Query write(core::Metric::write_tw);
    for (const P option : options) {
        read.over_word_lines(option, n4);
        tdp.over_word_lines(option, n4);
        write.over_word_lines(option, n3);
    }
    add("read_td", read, read.cases.size());
    add("worst_case_tdp", tdp, tdp.cases.size());
    add("write_tw", write, write.cases.size());
    add("disturb",
        core::Query(core::Metric::disturb).over_word_lines(P::le3, n3), 3);
    return out;
}

/// Qualitative shape of the paper's artifacts (Tables I-III, Fig. 4):
/// finite positive delays that grow with the column, and LE3 as the
/// option with the largest worst-case Cbl impact.
bool paper_shape_holds(const std::vector<core::Result_table>& t)
{
    if (t.size() != 6) return false;
    const auto rc = t[0].column<core::Worst_case_row>();
    if (!(rc[0].cbl_percent > rc[1].cbl_percent &&
          rc[0].cbl_percent > rc[2].cbl_percent)) {
        return false;
    }
    const auto nominal = t[1].column<core::Nominal_td_row>();
    for (std::size_t i = 0; i < nominal.size(); ++i) {
        if (!(nominal[i].td_simulation > 0.0 && nominal[i].td_formula > 0.0))
            return false;
        if (i > 0 && !(nominal[i].td_simulation > nominal[i - 1].td_simulation))
            return false;
    }
    for (const auto& row : t[2].column<core::Read_row>()) {
        if (!(row.td_nominal > 0.0 && row.td_varied > 0.0 &&
              std::isfinite(row.tdp_percent)))
            return false;
    }
    for (const auto& row : t[3].column<core::Tdp_row>()) {
        if (!(std::isfinite(row.tdp_simulation) &&
              std::isfinite(row.tdp_formula)))
            return false;
    }
    for (const auto& row : t[4].column<core::Write_row>()) {
        if (!(row.tw_nominal > 0.0 && row.tw_varied > 0.0)) return false;
    }
    for (const auto& row : t[5].column<core::Disturb_row>()) {
        if (!(row.v_bump_nominal > 0.0 && std::isfinite(row.disturb_percent)))
            return false;
    }
    return true;
}

} // namespace

Paper_pass paper_pass(Run& run, int threads)
{
    Tracer& tracer = run.tracer();
    Scope pass_span(tracer, "paper.pass");
    const auto queries = paper_queries(threads);
    Paper_pass out;
    const auto start = Clock::now();
    std::unique_ptr<core::Study_session> session;
    {
        Scope span(tracer, "core.session.construct");
        session = std::make_unique<core::Study_session>(tech::n10(),
                                                        uncached_options());
    }
    for (const Named_query& nq : queries) {
        const auto q0 = Clock::now();
        core::Result_table table;
        std::string error;
        try {
            Scope span(tracer, "core.session.run." + nq.name);
            table = session->run(nq.query);
        } catch (const std::exception& e) {
            error = e.what();
        }
        out.query_s.push_back(seconds_since(q0));
        run.check(error.empty() && table.size() == nq.query.cases.size(),
                  "paper_study query " + nq.name + " " + error);
        out.corner_cases += nq.corner_cases;
        out.tables.push_back(std::move(table));
    }
    out.wall_s = seconds_since(start);
    out.corner_searches = session->corner_search_count();
    out.surface_fits = session->surface_fit_count();
    out.query_runs = session->query_run_count();
    run.counter("session.corner_searches",
                static_cast<double>(out.corner_searches));
    run.counter("session.surface_fits", static_cast<double>(out.surface_fits));
    run.counter("session.query_runs", static_cast<double>(out.query_runs));
    return out;
}

void paper_layer_metrics(Run& run, const Paper_pass& serial,
                         double parallel_wall_s)
{
    run.metric("runner.efficiency.paper_study",
               serial.wall_s / (run.threads() * parallel_wall_s), "ratio");
    run.metric("session.corner_searches",
               static_cast<double>(serial.corner_searches), "count");
    run.metric("session.surface_fits",
               static_cast<double>(serial.surface_fits), "count");
    run.metric("session.query_runs", static_cast<double>(serial.query_runs),
               "count");
    run.metric("session.corner_memo_hit_ratio",
               1.0 - static_cast<double>(serial.corner_searches) /
                         static_cast<double>(serial.corner_cases),
               "ratio");
}

void run_paper_study(Run& run)
{
    Tracer& tracer = run.tracer();
    const bool traced = tracer.enabled();

    // Set-up is constructing the session (every pass builds its own);
    // the median of several constructions.
    std::vector<double> setup_s;
    for (int i = 0; i < 51; ++i) {
        const auto t0 = Clock::now();
        const core::Study_session session(tech::n10(), uncached_options());
        setup_s.push_back(seconds_since(t0));
    }

    // The serial reference pass, outside the measuring window; it also
    // warms the allocator and the code.
    const Paper_pass serial = paper_pass(run, 1);
    run.check(paper_shape_holds(serial.tables),
              "paper_study tables miss the paper's qualitative shape");

    std::vector<Paper_pass> passes;
    std::vector<double> traced_s, untraced_s;
    const auto window = Clock::now();
    while (run.window_open(window, passes.size(), traced ? 2 : 1)) {
        // A traced run alternates traced and untraced passes, so the
        // difference of their medians is the tracing overhead.
        tracer.set_enabled(run.traced_pass(passes.size()));
        passes.push_back(paper_pass(run, run.threads()));
        (tracer.enabled() ? traced_s : untraced_s)
            .push_back(passes.back().wall_s);
    }
    tracer.set_enabled(traced);

    std::vector<double> walls, query_s;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const Paper_pass& pass = passes[p];
        for (std::size_t q = 0; q < pass.tables.size(); ++q) {
            run.check(q < serial.tables.size() &&
                          pass.tables[q] == serial.tables[q],
                      "paper_study pass " + std::to_string(p) + " query " +
                          std::to_string(q) +
                          " differs from the serial pass");
        }
        walls.push_back(pass.wall_s);
        query_s.insert(query_s.end(), pass.query_s.begin(),
                       pass.query_s.end());
    }

    if (traced) {
        paper_layer_metrics(run, serial, median(walls));
        run.metric("trace.overhead_pct",
                   (median(traced_s) / median(untraced_s) - 1.0) * 100.0,
                   "%");
        Probe_plan plan;
        plan.have_paper = true;
        run_probes(run, plan);
        return;
    }
    run.metric("setup_s", median(setup_s), "s");
    run.metric("pass_s", median(walls), "s");
    run.metric("ops_per_s",
               static_cast<double>(serial.query_s.size()) / median(walls),
               "1/s");
    run.metric("op_p50_ms", percentile(query_s, 50.0) * 1e3, "ms");
    run.metric("op_p90_ms", percentile(query_s, 90.0) * 1e3, "ms");
    run.metric("peak_rss_mb", peak_rss_mb_self(), "MB");
    run.detail("study_s", median(walls), "s");
    run.detail("passes", static_cast<double>(passes.size()), "count");
}

} // namespace perfbench
