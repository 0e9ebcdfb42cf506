// mpsram_perfbench: one workload run of the repository benchmark.
//
//   mpsram_perfbench --workload paper_study|yield_screen|serve_mix
//                    --seed N --seconds S --trace 0|1
//                    --serve-binary PATH --work-dir DIR [--commit ID]
//
// Untraced, the last stdout line holds the end-to-end metrics; traced,
// the per-layer metrics, and the span tree is written to
// DIR/trace-<workload>-<seed>.json.  Exit status 0 only when every
// operation and correctness check passed.  perfbench/run.py builds this
// binary and is the intended entry point.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using mpsram::util::Json;

struct Metric_spec {
    const char* name;
    const char* unit;
    const char* span = nullptr;  ///< per-call self time of this span ...
    double scale = 1.0;          ///< ... times this factor
};

// Keep in step with BENCHMARK.json (perfbench/selftest.py checks it).
const std::vector<Metric_spec> end_to_end = {
    {"setup_s", "s"},       {"pass_s", "s"},       {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},    {"op_p90_ms", "ms"},   {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
};

const std::vector<Metric_spec> per_layer = {
    {"rng.stream_us", "us", "rng.stream", 1e6},
    {"pattern.realize_us", "us", "pattern.realize", 1e6},
    {"pattern.realize_calls", "count"},
    {"extract.variation_us", "us", "extract.variation", 1e6},
    {"extract.calls", "count"},
    {"analytic.tdp_formula_ns", "ns", "analytic.tdp_formula", 1e9},
    {"analytic.surface_fit_s", "s", "analytic.surface_fit", 1.0},
    {"mc.formula_sample_us", "us", "mc.formula_sample", 1e6},
    {"mc.surrogate_sample_us", "us", "mc.surrogate_sample", 1e6},
    {"mc.worst_case_s", "s", "mc.worst_case", 1.0},
    {"mc.corner_evals", "count"},
    {"sram.netlist_build_ms", "ms", "sram.netlist_build", 1e3},
    {"sram.netlist_update_ms", "ms", "sram.netlist_update", 1e3},
    {"sram.rollup_ms", "ms", "sram.rollup", 1e3},
    {"sram.read_s.n64", "s", "sram.read.n64", 1.0},
    {"sram.read_s.n1024", "s", "sram.read.n1024", 1.0},
    {"sram.write_s.n256", "s", "sram.write.n256", 1.0},
    {"sram.disturb_s.n256", "s", "sram.disturb.n256", 1.0},
    {"spice.newton_iterations", "count"},
    {"spice.lu_factorizations", "count"},
    {"spice.bypass_hits", "count"},
    {"spice.steps_accepted", "count"},
    {"spice.steps_rejected", "count"},
    {"spice.bypass_ratio", "ratio"},
    {"spice.step_accept_ratio", "ratio"},
    {"spice.us_per_newton", "us"},
    {"runner.efficiency.paper_study", "ratio"},
    {"runner.efficiency.yield_screen", "ratio"},
    {"session.corner_searches", "count"},
    {"session.surface_fits", "count"},
    {"session.query_runs", "count"},
    {"session.corner_memo_hit_ratio", "ratio"},
    {"serialize.encode_ms", "ms", "serialize.encode", 1e3},
    {"serialize.decode_ms", "ms", "serialize.decode", 1e3},
    {"serialize.table_bytes", "bytes"},
    {"serialize.query_key_us", "us", "serialize.query_key", 1e6},
    {"cache.store_ms", "ms", "cache.store", 1e3},
    {"cache.load_ms", "ms", "cache.load", 1e3},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.stores", "count"},
    {"service.handle_warm_us", "us", "service.handle_warm", 1e6},
    {"service.handle_cold_ms", "ms", "service.handle_cold", 1e3},
    {"service.exec_ms_p50", "ms"},
    {"service.wait_ms_p50", "ms"},
    {"service.memo_hit_ratio", "ratio"},
    {"service.busy", "count"},
    {"service.errors", "count"},
    {"socket.status_rtt_us", "us", "socket.status_rtt", 1e6},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

// The environment pins that would silently change a workload.
const char* const pinned_env[] = {"MPSRAM_SIM_ACCURACY", "MPSRAM_SOLVER_POLICY",
                                  "MPSRAM_CACHE", "MPSRAM_CACHE_DIR"};

[[noreturn]] void usage(const std::string& message)
{
    std::cerr << "mpsram_perfbench: " << message << "\n"
              << "usage: mpsram_perfbench --workload paper_study|yield_screen|"
                 "serve_mix --seed N --seconds S --trace 0|1 "
                 "--serve-binary PATH --work-dir DIR [--commit ID]\n";
    std::exit(2);
}

Json env_json(const Args& args, const std::string& commit, int threads)
{
    Json env;
    env.set("workload", args.workload);
    env.set("seed", args.seed);
    env.set("seconds", args.seconds);
    env.set("trace", args.trace);
    env.set("nproc", threads);
    env.set("compiler", std::string("gcc-compatible ") + __VERSION__);
    env.set("build_type", PERFBENCH_BUILD_TYPE);
    env.set("commit", commit);
    return env;
}

/// Cumulative CPU ticks of the machine: {steal, total}.  A virtual
/// machine's host reports the time it ran other guests as steal; the
/// share over a run says how loaded the host was while it measured.
std::pair<double, double> cpu_ticks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    double total = 0.0, steal = 0.0, v = 0.0;
    for (int i = 0; i < 8 && stat >> v; ++i) {
        total += v;
        if (i == 7) steal = v;
    }
    return {steal, total};
}

Json metrics_json(const std::vector<Metric>& metrics)
{
    Json out;
    for (const Metric& m : metrics) {
        Json v;
        v.set("value", m.value);
        v.set("unit", m.unit);
        out.set(m.name, std::move(v));
    }
    return out;
}

/// Span-derived metrics, the span count, the span-tree check, and the
/// trace file.
void finish_trace(Run& run, const Json& env)
{
    const Span_tree tree = analyse(run.tracer().spans());
    for (const Metric_spec& spec : per_layer) {
        if (spec.span == nullptr) continue;
        run.metric(spec.name, per_call_self_s(tree, spec.span) * spec.scale,
                   spec.unit);
    }
    run.metric("trace.spans", static_cast<double>(tree.spans.size()), "count");
    run.check(tree.violations == 0,
              "span tree: " + std::to_string(tree.violations) +
                  " spans outside their parent or with negative self time");

    Json spans{mpsram::util::Json_array{}};
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
        const Span& s = tree.spans[i];
        Json j;
        j.set("id", s.id);
        j.set("parent", s.parent);
        j.set("request", s.request);
        j.set("name", s.name);
        j.set("start_ns", static_cast<std::uint64_t>(s.start_ns));
        j.set("end_ns", static_cast<std::uint64_t>(s.end_ns));
        j.set("count", s.count);
        j.set("self_ns", tree.self_s[i] * 1e9);
        spans.as_array().push_back(std::move(j));
    }
    Json file;
    file.set("env", env);
    file.set("violations", static_cast<std::uint64_t>(tree.violations));
    file.set("spans", std::move(spans));
    const auto path =
        std::filesystem::path(run.args().work_dir) /
        ("trace-" + run.args().workload + "-" +
         std::to_string(run.args().seed) + ".json");
    std::ofstream(path) << file.dump() << "\n";
    std::cerr << "perfbench: wrote " << path.string() << "\n";
}

} // namespace

int main(int argc, char** argv)
{
    Args args;
    std::string commit = "unknown";
    bool have_seed = false, have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("flag " + flag + " needs a value");
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                args.trace = value == "1";
            } else if (flag == "--serve-binary") {
                args.serve_binary = value;
            } else if (flag == "--work-dir") {
                args.work_dir = value;
            } else if (flag == "--commit") {
                commit = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_workload || !have_seed) {
        usage("--workload and --seed are required");
    }
    if (args.workload != "paper_study" && args.workload != "yield_screen" &&
        args.workload != "serve_mix") {
        usage("unknown workload " + args.workload);
    }
    if (args.serve_binary.empty() || args.work_dir.empty()) {
        usage("--serve-binary and --work-dir are required");
    }
    for (const char* name : pinned_env) {
        if (std::getenv(name) != nullptr) {
            std::cerr << "mpsram_perfbench: refusing to run with " << name
                      << " set; it would change the workload\n";
            return 2;
        }
    }

    try {
        std::filesystem::create_directories(args.work_dir);
        Run run(args);
        Json env = env_json(args, commit, run.threads());
        const auto ticks0 = cpu_ticks();
        if (args.workload == "paper_study") {
            run_paper_study(run);
        } else if (args.workload == "yield_screen") {
            run_yield_screen(run);
        } else {
            run_serve_mix(run);
        }
        const auto ticks1 = cpu_ticks();
        const double ticks = ticks1.second - ticks0.second;
        env.set("host_steal_pct",
                ticks > 0.0 ? (ticks1.first - ticks0.first) / ticks * 100.0
                            : 0.0);
        if (args.trace) finish_trace(run, env);
        run.finish_counters();
        if (!args.trace) {
            run.metric("ok_ratio",
                       1.0 - static_cast<double>(run.failed()) /
                                 static_cast<double>(run.attempted()),
                       "ratio");
        }

        // Exactly the listed metrics, each finite, in list order.
        std::vector<Metric> out;
        for (const Metric_spec& spec : args.trace ? per_layer : end_to_end) {
            const Metric* found = nullptr;
            for (const Metric& m : run.metrics()) {
                if (m.name == spec.name) found = &m;
            }
            const bool ok = found != nullptr && found->unit == spec.unit &&
                            std::isfinite(found->value);
            run.check(ok, std::string("metric ") + spec.name +
                              " missing, non-finite or in the wrong unit");
            out.push_back({spec.name, ok ? found->value : -1.0, spec.unit});
        }
        if (!args.trace) {
            std::vector<Metric> details = run.details();
            details.push_back(
                {"failed_ratio",
                 static_cast<double>(run.failed()) /
                     static_cast<double>(run.attempted()),
                 "ratio"});
            Json line;
            line.set("detail", metrics_json(details));
            std::cout << line.dump() << "\n";
        }
        Json env_line;
        env_line.set("env", env);
        std::cout << env_line.dump() << "\n";

        Json result;
        result.set("correct", run.failed() == 0);
        result.set("attempted", run.attempted());
        result.set("failed", run.failed());
        result.set("metrics", metrics_json(out));
        std::cout << result.dump() << std::endl;
        return run.failed() == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "mpsram_perfbench: " << e.what() << "\n";
        return 1;
    }
}
