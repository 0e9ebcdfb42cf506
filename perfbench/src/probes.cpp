// Layer probes of the traced run: direct calls into each layer's public
// functions on seeded inputs, each inside a span.  The per-layer metrics
// are the spans' self times (per call) and the counters the calls
// return.  A probe that re-measures another workload (a paper pass, a
// yield screen, a serve phase) runs the same code that workload runs.
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analytic/td_formula.h"
#include "core/result_cache.h"
#include "core/serialize.h"
#include "core/service.h"
#include "mc/distribution.h"
#include "mc/surrogate.h"
#include "mc/worst_case.h"
#include "pattern/engine.h"
#include "sram/bitline_model.h"
#include "sram/cell.h"
#include "sram/disturb_sim.h"
#include "sram/layout.h"
#include "sram/netlist_builder.h"
#include "sram/read_sim.h"
#include "sram/write_sim.h"
#include "util/json.h"
#include "util/rng.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using namespace mpsram;
using P = tech::Patterning_option;

/// Keeps the optimizer from discarding a probed call's result.
volatile double sink = 0.0;

/// A decomposed LE3 array at 8 nm overlay (the headline case of Fig. 5
/// and of the yield screen), with its engine and victim wires: the input
/// of every sample-level probe.
struct Le3_array {
    tech::Technology tech = tech::n10();
    sram::Array_config cfg;
    std::unique_ptr<pattern::Patterning_engine> engine;
    geom::Wire_array nominal;
    sram::Victim_wires victims;

    explicit Le3_array(int word_lines)
    {
        tech.variability.le3_ol_3sigma = 8e-9;
        cfg.word_lines = word_lines;
        engine = pattern::make_engine(P::le3, tech);
        nominal = engine->decompose(sram::build_metal1_array(tech, cfg));
        victims = sram::find_victim_wires(nominal, cfg);
    }
};

std::vector<pattern::Process_sample> draw(const pattern::Patterning_engine& e,
                                          std::uint64_t seed, std::size_t n)
{
    std::vector<pattern::Process_sample> out;
    for (std::size_t i = 0; i < n; ++i) {
        util::Rng rng = util::Rng::stream(seed, i);
        out.push_back(e.sample_gaussian(rng, 3.0));
    }
    return out;
}

void probe_sample_layers(Run& run, const core::Study_session& session,
                         const core::Study_session& yield_session)
{
    Tracer& tracer = run.tracer();
    const std::uint64_t seed = mix_seed(run.args().seed, 7);
    const Le3_array a(64);

    {
        constexpr std::size_t n = 20000;
        Scope span(tracer, "rng.stream");
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            util::Rng rng = util::Rng::stream(seed, i);
            acc += a.engine->sample_gaussian(rng, 3.0)[0];
        }
        sink = acc;
        span.set_count(n);
    }

    const auto samples = draw(*a.engine, seed, 2000);
    {
        Scope span(tracer, "pattern.realize");
        geom::Wire_array out;
        for (const auto& s : samples) a.engine->realize_into(a.nominal, s, out);
        span.set_count(samples.size());
    }

    std::vector<geom::Wire_array> realized;
    for (std::size_t i = 0; i < 200; ++i) {
        realized.push_back(a.engine->realize(a.nominal, samples[i]));
    }
    const extract::Extractor& extractor = session.extractor();
    std::vector<extract::Rc_variation> variations;
    {
        Scope span(tracer, "extract.variation");
        for (int rep = 0; rep < 10; ++rep) {
            variations.clear();
            for (const auto& r : realized) {
                variations.push_back(
                    extractor.variation(a.nominal, r, a.victims.bl));
            }
        }
        span.set_count(10 * realized.size());
    }

    const analytic::Td_params params = session.formula_params(64);
    {
        constexpr std::size_t n = 200000;
        Scope span(tracer, "analytic.tdp_formula");
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto& v = variations[i % variations.size()];
            acc += analytic::tdp_percent(params, 64, v.r_factor, v.c_factor);
        }
        sink = acc;
        span.set_count(n);
    }

    mc::Distribution_options serial;
    serial.seed = seed;
    {
        serial.samples = 5000;
        Scope span(tracer, "mc.formula_sample");
        const auto d = mc::tdp_distribution(*a.engine, extractor, a.nominal,
                                            a.victims.bl, params, 64, serial);
        sink = d.summary.mean;
        span.set_count(static_cast<std::uint64_t>(serial.samples));
    }
    {
        // The yield set-up calibrated this case's surfaces already.
        const auto surfaces = yield_session.calibrated_surfaces(
            core::Metric::mc_tdp, P::le3, 64, 8e-9);
        serial.samples = 50000;
        serial.store_samples = false;
        Scope span(tracer, "mc.surrogate_sample");
        const auto d = mc::surrogate_distribution(*a.engine, *surfaces, serial);
        sink = d.summary.mean;
        span.set_count(static_cast<std::uint64_t>(serial.samples));
    }
    {
        constexpr int reps = 20;
        Scope span(tracer, "mc.worst_case");
        for (int i = 0; i < reps; ++i) {
            const auto wc = mc::find_worst_case(*a.engine, extractor,
                                                a.nominal, a.victims.bl,
                                                a.victims.vss);
            sink = wc.variation.c_factor;
        }
        span.set_count(reps);
    }
    // Corner evaluations, counted through the metric overload with the
    // paper's criterion (victim Cbl).
    std::atomic<std::uint64_t> evals{0};
    const auto counted = mc::find_worst_case(
        *a.engine, extractor, a.nominal, a.victims.bl, a.victims.vss,
        [&](const geom::Wire_array& r, const core::Run_context&) {
            evals.fetch_add(1, std::memory_order_relaxed);
            return extractor.net_rc(r, a.victims.bl).capacitance;
        });
    sink = counted.variation.c_factor;
    run.metric("pattern.realize_calls", static_cast<double>(samples.size()),
               "count");
    run.metric("extract.calls", 10.0 * realized.size(), "count");
    run.metric("mc.corner_evals", static_cast<double>(evals.load()), "count");
}

/// Warmed column transients: a first run builds the netlist, the timed
/// runs re-point its wires.  Each timed transient runs twice; its
/// Step_stats must repeat exactly.
void probe_sram_spice(Run& run, const core::Study_session& session)
{
    Tracer& tracer = run.tracer();
    const tech::Technology& tech = session.technology();
    const core::Study_options& opts = session.options();
    const sram::Cell_electrical cell = sram::Cell_electrical::n10(tech.feol);
    // Fixed inputs, not the workload seed: the Step_stats counters are
    // exact and should compare across runs and workloads.
    constexpr std::uint64_t seed = 20150609;

    auto wires_at = [&](int n, std::uint64_t index) {
        Le3_array a(n);
        util::Rng rng = util::Rng::stream(seed, index);
        const auto realized =
            a.engine->realize(a.nominal, a.engine->sample_gaussian(rng, 3.0));
        auto wires = sram::roll_up_bitline(session.extractor(), a.nominal,
                                           realized, tech, a.cfg);
        return std::pair(std::move(a), wires);
    };

    spice::Step_stats total;
    double transient_s = 0.0;
    auto record = [&](const std::string& name, const spice::Step_stats& st,
                      int rep, double wall) {
        const std::string key = "spice." + name;
        run.counter(key + ".newton_iterations",
                    static_cast<double>(st.newton_iterations));
        run.counter(key + ".lu_factorizations",
                    static_cast<double>(st.lu_factorizations));
        run.counter(key + ".bypass_hits", static_cast<double>(st.bypass_hits));
        run.counter(key + ".total_attempts",
                    static_cast<double>(st.total_attempts()));
        if (rep == 0) {
            total += st;
            transient_s += wall;
        }
    };

    sram::Read_options ropts = opts.read;
    for (const int n : {64, 1024}) {
        const auto [a, wires] = wires_at(n, static_cast<std::uint64_t>(n));
        const auto nominal = sram::roll_up_nominal(session.extractor(),
                                                   a.nominal, tech, a.cfg);
        sram::Read_sim_context ctx;
        ctx.simulate(tech, cell, nominal, a.cfg, opts.timing, opts.netlist,
                     ropts);
        for (int rep = 0; rep < 2; ++rep) {
            const auto t0 = Clock::now();
            Scope span(tracer, "sram.read.n" + std::to_string(n));
            const auto r = ctx.simulate(tech, cell, wires, a.cfg, opts.timing,
                                        opts.netlist, ropts);
            run.check(r.crossed, "probe read transient never crossed");
            record("read.n" + std::to_string(n), r.steps, rep,
                   seconds_since(t0));
        }
    }
    {
        const auto [a, wires] = wires_at(256, 256);
        sram::Write_sim_context ctx;
        ctx.simulate(tech, cell, wires, a.cfg, opts.write_timing, opts.netlist,
                     opts.write);
        for (int rep = 0; rep < 2; ++rep) {
            const auto t0 = Clock::now();
            Scope span(tracer, "sram.write.n256");
            const auto r = ctx.simulate(tech, cell, wires, a.cfg,
                                        opts.write_timing, opts.netlist,
                                        opts.write);
            run.check(r.flipped, "probe write transient never flipped");
            record("write.n256", r.steps, rep, seconds_since(t0));
        }
    }
    {
        const auto [a, wires] = wires_at(256, 257);
        sram::Disturb_sim_context ctx;
        ctx.simulate(tech, cell, wires, a.cfg, opts.timing, opts.netlist,
                     opts.disturb);
        for (int rep = 0; rep < 2; ++rep) {
            const auto t0 = Clock::now();
            Scope span(tracer, "sram.disturb.n256");
            const auto r = ctx.simulate(tech, cell, wires, a.cfg, opts.timing,
                                        opts.netlist, opts.disturb);
            run.check(!r.flipped, "probe half-select flipped the cell");
            record("disturb.n256", r.steps, rep, seconds_since(t0));
        }
    }

    // Netlist build, wire update and roll-up at n = 1024.
    {
        const auto [a, wires] = wires_at(1024, 1024);
        const auto [b, wires2] = wires_at(1024, 1025);
        const auto realized = a.engine->realize(
            a.nominal, draw(*a.engine, seed, 1).front());
        {
            Scope span(tracer, "sram.netlist_build");
            for (int i = 0; i < 3; ++i) {
                const auto net = sram::build_read_netlist(
                    tech, cell, wires, a.cfg, opts.timing, opts.netlist);
                sink = net.vdd;
            }
            span.set_count(3);
        }
        auto net = sram::build_read_netlist(tech, cell, wires, a.cfg,
                                            opts.timing, opts.netlist);
        {
            Scope span(tracer, "sram.netlist_update");
            for (int i = 0; i < 20; ++i) {
                sram::update_read_netlist_wires(net, i % 2 ? wires : wires2,
                                                opts.netlist);
            }
            span.set_count(20);
        }
        {
            Scope span(tracer, "sram.rollup");
            for (int i = 0; i < 20; ++i) {
                sink = sram::roll_up_bitline(session.extractor(), a.nominal,
                                             realized, tech, a.cfg)
                           .c_bl_cell;
            }
            span.set_count(20);
        }
    }

    const double its = static_cast<double>(total.newton_iterations);
    run.metric("spice.newton_iterations", its, "count");
    run.metric("spice.lu_factorizations",
               static_cast<double>(total.lu_factorizations), "count");
    run.metric("spice.bypass_hits", static_cast<double>(total.bypass_hits),
               "count");
    run.metric("spice.steps_accepted", total.accepted, "count");
    run.metric("spice.steps_rejected",
               total.lte_rejected + total.newton_rejected, "count");
    run.metric("spice.bypass_ratio",
               static_cast<double>(total.bypass_hits) / its, "ratio");
    run.metric("spice.step_accept_ratio",
               static_cast<double>(total.accepted) / total.total_attempts(),
               "ratio");
    run.metric("spice.us_per_newton", transient_s / its * 1e6, "us");
}

/// Serialization, cache and in-process service on the 10k-sample table.
void probe_serialize_cache_service(Run& run)
{
    Tracer& tracer = run.tracer();
    const core::Study_session session(tech::n10(), uncached_options());
    mc::Distribution_options mc;
    mc.seed = mix_seed(run.args().seed, 13);
    mc.runner = core::Runner_options{run.threads()};
    core::Query query(core::Metric::mc_tdp);
    query.with_case({P::le3, 64, 8e-9}).with_mc(mc);
    const core::Result_table table = session.run(query);

    std::string bytes;
    {
        Scope span(tracer, "serialize.encode");
        for (int i = 0; i < 10; ++i) {
            bytes = core::json_of_result_table(table).dump();
        }
        span.set_count(10);
    }
    core::Result_table decoded;
    {
        Scope span(tracer, "serialize.decode");
        for (int i = 0; i < 10; ++i) {
            decoded = core::result_table_of_json(util::Json::parse(bytes));
        }
        span.set_count(10);
    }
    run.check(decoded == table, "decoded table differs from the encoded one");
    run.metric("serialize.table_bytes", static_cast<double>(bytes.size()),
               "bytes");
    {
        constexpr int n = 2000;
        Scope span(tracer, "serialize.query_key");
        std::uint64_t acc = 0;
        for (int i = 0; i < n; ++i) acc ^= core::query_key(session, query);
        sink = static_cast<double>(acc);
        span.set_count(n);
    }

    const std::filesystem::path dir =
        std::filesystem::path(run.args().work_dir) /
        ("cache-probe-" + std::to_string(getpid()));
    std::filesystem::remove_all(dir);
    {
        core::Result_cache cache(dir.string(), core::Cache_mode::readwrite,
                                 core::serialization_version);
        const util::Json payload = core::json_of_result_table(table);
        const std::uint64_t key = core::query_key(session, query);
        {
            Scope span(tracer, "cache.store");
            for (int i = 0; i < 10; ++i) cache.store("query", key, payload);
            span.set_count(10);
        }
        std::optional<util::Json> loaded;
        {
            Scope span(tracer, "cache.load");
            for (int i = 0; i < 10; ++i) loaded = cache.load("query", key);
            span.set_count(10);
        }
        run.check(loaded && loaded->dump() == bytes,
                  "cache load differs from the stored table");
    }
    std::filesystem::remove_all(dir);

    // The service without a socket: cold handles execute distinct
    // queries, warm handles repeat one (a memo hit).
    core::Service_options sopts;
    sopts.runner = core::Runner_options{run.threads()};
    core::Query_service service(session, sopts);
    auto line_of = [](const core::Query& q) {
        util::Json request;
        request.set("v", core::service_protocol_version);
        request.set("op", "query");
        request.set("query", core::json_of_query(q));
        return request.dump();
    };
    for (int i = 0; i < 5; ++i) {
        core::Query cold = query;
        cold.mc.seed = mix_seed(run.args().seed, 100 + i);
        const std::string line = line_of(cold);
        std::string response;
        {
            Scope span(tracer, "service.handle_cold");
            response = service.handle_line(line);
        }
        run.check(response.rfind("{\"v\":1,\"ok\":true,", 0) == 0,
                  "in-process cold handle failed");
    }
    const std::string warm = line_of(query);
    service.handle_line(warm);
    {
        constexpr int n = 50;
        Scope span(tracer, "service.handle_warm");
        for (int i = 0; i < n; ++i) sink = service.handle_line(warm).size();
        span.set_count(n);
    }
    run.check(service.stats().memo_hits >= 50, "warm handles missed the memo");
}

} // namespace

void run_probes(Run& run, const Probe_plan& plan)
{
    Tracer& tracer = run.tracer();
    Scope probes_span(tracer, "probes");

    if (!plan.have_paper) {
        const Paper_pass serial = paper_pass(run, 1);
        const Paper_pass parallel = paper_pass(run, run.threads());
        run.check(serial.tables == parallel.tables,
                  "paper pass differs between 1 and " +
                      std::to_string(run.threads()) + " threads");
        paper_layer_metrics(run, serial, parallel.wall_s);
    }
    Yield_state own;
    const Yield_state* yield = plan.yield;
    if (yield == nullptr) {
        yield_setup(run, own);
        const Yield_pass serial = yield_pass(run, own, 0, 1);
        const Yield_pass parallel = yield_pass(run, own, 0, run.threads());
        run.check(serial.tables == parallel.tables,
                  "yield screen differs between 1 and " +
                      std::to_string(run.threads()) + " threads");
        yield_layer_metrics(run, serial, parallel.wall_s);
        yield = &own;
    }
    if (!plan.have_serve) {
        Serve_plan serve;
        serve.min_rounds = 2;
        serve.restarts = 1;
        serve_phase(run, serve);
    }

    const core::Study_session session(tech::n10(), uncached_options());
    probe_sample_layers(run, session, *yield->session);
    probe_sram_spice(run, session);
    probe_serialize_cache_service(run);
}

} // namespace perfbench
