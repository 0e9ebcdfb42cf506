// yield_screen: Table IV's Monte-Carlo screen on one calibrated session.
//
// Each pass runs the formula engine with stored samples over Table IV's
// cases and the surrogate engine, streaming, over LE3 at 8 nm, SADP and
// EUV.  The timed part runs no SPICE and its samples are even, so RNG,
// patterning, extraction and sample-loop changes show here, while a
// case-scheduling change should not move it.
#include <cmath>
#include <exception>
#include <string>
#include <vector>

#include "core/query.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using namespace mpsram;
using P = tech::Patterning_option;

constexpr int word_lines = 64;
constexpr int formula_samples = 50000;
constexpr int surrogate_samples = 200000;

struct Screen_case {
    P option;
    double ol_3sigma;  ///< [m]; < 0 = technology default
};

const std::vector<Screen_case> formula_cases = {
    {P::le3, 3e-9}, {P::le3, 5e-9}, {P::le3, 7e-9},
    {P::le3, 8e-9}, {P::sadp, -1.0}, {P::euv, -1.0}};
const std::vector<Screen_case> surrogate_cases = {
    {P::le3, 8e-9}, {P::sadp, -1.0}, {P::euv, -1.0}};

core::Query screen_query(const Screen_case& c, int samples, bool surrogate,
                         std::uint64_t seed, int threads)
{
    mc::Distribution_options mc;
    mc.samples = samples;
    mc.seed = seed;
    mc.runner = core::Runner_options{threads};
    mc.store_samples = !surrogate;
    core::Query q(core::Metric::mc_tdp);
    q.with_case({c.option, word_lines, c.ol_3sigma}).with_mc(mc);
    q.on(core::Runner_options{threads});
    if (surrogate) q.with_tdp_engine(core::Tdp_engine::surrogate);
    return q;
}

/// A distribution is sane when it summarizes every sample and its
/// moments are finite with a positive spread.
bool distribution_ok(const core::Result_table& t, int samples, bool stored)
{
    if (t.size() != 1) return false;
    const auto& d = t.as<mc::Tdp_distribution>(0);
    return d.summary.count == static_cast<std::size_t>(samples) &&
           std::isfinite(d.summary.mean) && d.summary.stddev > 0.0 &&
           (!stored || d.tdp.size() == static_cast<std::size_t>(samples));
}

} // namespace

double yield_setup(Run& run, Yield_state& state)
{
    Tracer& tracer = run.tracer();
    Scope setup_span(tracer, "yield.setup");
    const auto start = Clock::now();
    {
        Scope span(tracer, "core.session.construct");
        state.session = std::make_unique<core::Study_session>(
            tech::n10(), uncached_options());
    }
    for (const Screen_case& c : surrogate_cases) {
        std::string error;
        try {
            Scope span(tracer, "analytic.surface_fit");
            state.session->calibrated_surfaces(
                core::Metric::mc_tdp, c.option, word_lines, c.ol_3sigma,
                std::nullopt, std::nullopt,
                core::Runner_options{run.threads()});
        } catch (const std::exception& e) {
            error = e.what();
        }
        run.check(error.empty(), "yield_screen calibration " + error);
    }
    return seconds_since(start);
}

Yield_pass yield_pass(Run& run, const Yield_state& state, std::size_t pass,
                      int threads)
{
    Tracer& tracer = run.tracer();
    Scope pass_span(tracer, "yield.pass");
    const core::Study_session& session = *state.session;
    const std::size_t fits0 = session.surface_fit_count();
    const std::size_t corners0 = session.corner_search_count();
    const std::size_t runs0 = session.query_run_count();
    Yield_pass out;
    const auto start = Clock::now();
    auto screen = [&](const Screen_case& c, std::size_t index, int samples,
                      bool surrogate) {
        const std::uint64_t seed =
            mix_seed(run.args().seed, pass * 16 + index);
        const core::Query q =
            screen_query(c, samples, surrogate, seed, threads);
        const auto q0 = Clock::now();
        core::Result_table table;
        std::string error;
        try {
            Scope span(tracer, surrogate ? "core.session.run.mc_surrogate"
                                         : "core.session.run.mc_formula");
            table = session.run(q);
        } catch (const std::exception& e) {
            error = e.what();
        }
        const double wall = seconds_since(q0);
        out.query_s.push_back(wall);
        (surrogate ? out.surrogate_s : out.formula_s) += wall;
        (surrogate ? out.surrogate_samples : out.formula_samples) +=
            static_cast<std::size_t>(samples);
        run.check(error.empty() && distribution_ok(table, samples, !surrogate),
                  "yield_screen pass " + std::to_string(pass) + " case " +
                      std::to_string(index) + " " + error);
        out.tables.push_back(std::move(table));
    };
    for (std::size_t i = 0; i < formula_cases.size(); ++i) {
        screen(formula_cases[i], i, formula_samples, false);
    }
    for (std::size_t i = 0; i < surrogate_cases.size(); ++i) {
        screen(surrogate_cases[i], 8 + i, surrogate_samples, true);
    }
    out.wall_s = seconds_since(start);

    // Fig. 5's shape: LE3 at 8 nm overlay spreads more than twice as wide
    // as SADP, on both engines.
    auto sigma = [&](std::size_t i) {
        return out.tables[i].size() == 1
                   ? out.tables[i].as<mc::Tdp_distribution>(0).summary.stddev
                   : 0.0;
    };
    run.check(sigma(3) > 2.0 * sigma(4) && sigma(6) > 2.0 * sigma(7),
              "yield_screen sigma ordering (LE3 8 nm vs SADP) does not hold");

    run.counter("session.surface_fits.yield_pass",
                static_cast<double>(session.surface_fit_count() - fits0));
    run.counter("session.corner_searches.yield_pass",
                static_cast<double>(session.corner_search_count() - corners0));
    run.counter("session.query_runs.yield_pass",
                static_cast<double>(session.query_run_count() - runs0));
    return out;
}

void yield_layer_metrics(Run& run, const Yield_pass& serial,
                         double parallel_wall_s)
{
    run.metric("runner.efficiency.yield_screen",
               serial.wall_s / (run.threads() * parallel_wall_s), "ratio");
}

void run_yield_screen(Run& run)
{
    Tracer& tracer = run.tracer();
    const bool traced = tracer.enabled();

    // Set-up: a session plus its three surrogate calibrations, repeated;
    // the last session serves the screen.
    Yield_state state;
    std::vector<double> setup_s;
    for (int i = 0; i < 3; ++i) setup_s.push_back(yield_setup(run, state));

    std::vector<Yield_pass> passes;
    std::vector<double> traced_s, untraced_s;
    const auto window = Clock::now();
    while (run.window_open(window, passes.size(), traced ? 2 : 1)) {
        tracer.set_enabled(run.traced_pass(passes.size()));
        passes.push_back(yield_pass(run, state, passes.size(), run.threads()));
        (tracer.enabled() ? traced_s : untraced_s)
            .push_back(passes.back().wall_s);
        // Only pass 0 is compared again; dropping the other tables keeps
        // the peak memory independent of the pass count.
        if (passes.size() > 1) passes.back().tables.clear();
    }
    tracer.set_enabled(traced);

    // Thread-count determinism: pass 0 again on one thread, outside the
    // window, must reproduce every distribution bitwise.
    const Yield_pass serial = yield_pass(run, state, 0, 1);
    for (std::size_t i = 0; i < serial.tables.size(); ++i) {
        run.check(i < passes[0].tables.size() &&
                      serial.tables[i] == passes[0].tables[i],
                  "yield_screen case " + std::to_string(i) +
                      " differs between 1 and " +
                      std::to_string(run.threads()) + " threads");
    }

    std::vector<double> walls, query_s, formula_rate, surrogate_rate;
    for (const Yield_pass& pass : passes) {
        walls.push_back(pass.wall_s);
        query_s.insert(query_s.end(), pass.query_s.begin(),
                       pass.query_s.end());
        formula_rate.push_back(static_cast<double>(pass.formula_samples) /
                               pass.formula_s);
        surrogate_rate.push_back(static_cast<double>(pass.surrogate_samples) /
                                 pass.surrogate_s);
    }

    if (traced) {
        yield_layer_metrics(run, serial, median(walls));
        run.metric("trace.overhead_pct",
                   (median(traced_s) / median(untraced_s) - 1.0) * 100.0,
                   "%");
        Probe_plan plan;
        plan.yield = &state;
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
    run.detail("formula_samples_per_s", median(formula_rate), "samples/s");
    run.detail("surrogate_samples_per_s", median(surrogate_rate),
               "samples/s");
    run.detail("passes", static_cast<double>(passes.size()), "count");
}

} // namespace perfbench
