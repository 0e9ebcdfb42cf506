// Shared pieces of the repository benchmark: span tracing, run outcome
// bookkeeping, small statistics helpers, and the workload entry points.
//
// The benchmark drives the mpsram layers only through their public
// headers.  Every timing it reports is taken here, around those calls;
// nothing inside the library is instrumented.
#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- tracing -----------------------------------------------------------------

/// One recorded span: a named interval around a call into a layer.
/// `parent` is 0 for a root span; spans of one request share `request`.
/// `count` is the number of calls the interval covers (a span may time a
/// batch of identical small calls).
struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t count = 1;
};

/// In-memory span recorder.  Disabled, it records nothing and costs one
/// branch per span.  Thread-safe: the serve workload records from its
/// client threads.
class Tracer {
public:
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    /// Open a span and return its id (0 when disabled).  `parent` 0 means
    /// "the innermost open span of this thread", or a root when none is
    /// open; `request` 0 inherits the parent's request id.
    std::uint64_t begin(std::string_view name, std::uint64_t parent = 0,
                        std::uint64_t request = 0);
    /// Close a span opened by begin(); `count` calls were covered.
    void end(std::uint64_t id, std::uint64_t count = 1);

    std::vector<Span> spans() const;

private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span.  Nested scopes on one thread parent automatically.
class Scope {
public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t parent = 0,
          std::uint64_t request = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, request))
    {
    }
    ~Scope() { tracer_.end(id_, count_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const { return id_; }
    void set_count(std::uint64_t count) { count_ = count; }

private:
    Tracer& tracer_;
    std::uint64_t id_;
    std::uint64_t count_ = 1;
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals.  Also verifies that each child
/// lies inside its parent; `violations` counts those that do not.
struct Span_tree {
    std::vector<Span> spans;
    std::vector<double> self_s;  ///< parallel to spans
    std::size_t violations = 0;
};
Span_tree analyse(std::vector<Span> spans);

/// Per-call self time of the spans named `name`: the median over spans
/// of (self time / count).  NaN when there is no such span.
double per_call_self_s(const Span_tree& tree, std::string_view name);

// --- statistics --------------------------------------------------------------

/// Percentile by linear interpolation between order statistics (the
/// `numpy.percentile` default); NaN for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

// --- run bookkeeping ---------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Command-line arguments of one benchmark run.
struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string serve_binary;  ///< path of mpsram_serve
    std::string work_dir;      ///< scratch root inside the checkout
};

/// Everything one run accumulates: operation and check outcomes, the
/// exact counters, metrics, and the tracer.
class Run {
public:
    explicit Run(Args args);

    const Args& args() const { return args_; }
    int threads() const { return threads_; }
    Tracer& tracer() { return tracer_; }

    /// Record one operation or correctness check.  A failure is counted,
    /// logged to stderr, and makes the run incorrect.
    bool check(bool ok, const std::string& what);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /// Exact-counter gate: record a deterministic counter observed once
    /// per repetition (pass, round, daemon).  All observations of one
    /// name must be equal; finish_counters() turns each disagreement
    /// into a failed check.
    void counter(const std::string& name, double value);
    void finish_counters();

    /// End-to-end (untraced run) and per-layer (traced run) metrics.
    void metric(const std::string& name, double value, std::string unit);
    /// Workload-specific figures, printed on the `detail` line beside
    /// the listed metrics.
    void detail(const std::string& name, double value, std::string unit);
    const std::vector<Metric>& metrics() const { return metrics_; }
    const std::vector<Metric>& details() const { return details_; }

    /// Whether pass `index` of a traced run records spans.  Traced and
    /// untraced passes alternate in ABBA order, so drift over the window
    /// cancels out of the tracing overhead.
    bool traced_pass(std::size_t index) const
    {
        return args_.trace && (index % 4 == 0 || index % 4 == 3);
    }

    /// True while the measuring window is open.
    bool window_open(Clock::time_point start, std::size_t done,
                     std::size_t minimum) const;

private:
    Args args_;
    int threads_ = 1;
    Tracer tracer_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, std::vector<double>> counters_;
    std::vector<Metric> metrics_;
    std::vector<Metric> details_;
};

/// Peak resident set of this process [MB].
double peak_rss_mb_self();
/// Peak resident set of the largest waited-for child process [MB].
double peak_rss_mb_children();

/// Default study options with the on-disk cache off: every workload
/// session except the serve daemon's computes everything it reports.
mpsram::core::Study_options uncached_options();

/// Deterministic 64-bit mix of a seed and a stream index (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

// --- workloads and probes ----------------------------------------------------

void run_paper_study(Run& run);
void run_yield_screen(Run& run);
void run_serve_mix(Run& run);

// Shared by a workload and the probe that re-measures it for another
// workload's traced run.

/// One paper_study pass on a fresh uncached session: its wall time [s],
/// per-query latencies, session counters and tables.
struct Paper_pass {
    double wall_s = 0.0;
    std::vector<double> query_s;
    std::size_t corner_searches = 0;
    std::size_t surface_fits = 0;
    std::size_t query_runs = 0;
    std::size_t corner_cases = 0;  ///< cases that need a worst corner
    std::vector<mpsram::core::Result_table> tables;  ///< query order
};
Paper_pass paper_pass(Run& run, int threads);
/// Per-layer metrics of one paper pass (session.*), plus the runner
/// efficiency from a serial and a parallel pass.
void paper_layer_metrics(Run& run, const Paper_pass& serial,
                         double parallel_wall_s);

/// Screens on a session calibrated by yield_setup().
struct Yield_pass {
    double wall_s = 0.0;
    std::vector<double> query_s;
    double formula_s = 0.0;
    double surrogate_s = 0.0;
    std::size_t formula_samples = 0;
    std::size_t surrogate_samples = 0;
    std::vector<mpsram::core::Result_table> tables;
};
/// A yield session: constructed and calibrated by yield_setup().
struct Yield_state {
    std::unique_ptr<mpsram::core::Study_session> session;
};
/// Construct and calibrate a yield session; returns the set-up wall [s].
double yield_setup(Run& run, Yield_state& state);
Yield_pass yield_pass(Run& run, const Yield_state& state, std::size_t pass,
                      int threads);
void yield_layer_metrics(Run& run, const Yield_pass& serial,
                         double parallel_wall_s);

/// The serve phase: launch a daemon, run rounds until `seconds` pass
/// (at least `min_rounds`), shut it down, restart it `restarts` times.
/// `workload` marks the serve_mix run itself, which reports the
/// end-to-end set untraced and the tracing overhead traced; a traced run
/// always reports the serve per-layer metrics.
struct Serve_plan {
    double seconds = 0.0;
    std::size_t min_rounds = 1;
    std::size_t restarts = 3;
    bool workload = false;
};
void serve_phase(Run& run, const Serve_plan& plan);

/// Layer probes of the traced run.  A workload's own measurements stand
/// in for the probe that would repeat them: `have_paper` / `have_serve`
/// skip the paper pass and serve phase, and `yield` lends the calibrated
/// yield session (null: the probes set one up and screen on it).
struct Probe_plan {
    bool have_paper = false;
    bool have_serve = false;
    const Yield_state* yield = nullptr;
};
void run_probes(Run& run, const Probe_plan& plan);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
