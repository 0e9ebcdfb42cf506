// Span recorder, span-tree analysis, statistics and run bookkeeping.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <thread>
#include <utility>

#include <sys/resource.h>

#include "perfbench.h"

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> open_stack;

std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

std::uint64_t Tracer::begin(std::string_view name, std::uint64_t parent,
                            std::uint64_t request)
{
    if (!enabled_) return 0;
    if (parent == 0 && !open_stack.empty()) parent = open_stack.back();
    Span span;
    span.parent = parent;
    span.name = std::string(name);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        span.id = spans_.size() + 1;  // ids are 1-based indices
        if (request == 0 && parent != 0) {
            request = spans_[parent - 1].request;
        }
        span.request = request;
        span.start_ns = now_ns();
        spans_.push_back(std::move(span));
        open_stack.push_back(spans_.back().id);
    }
    return open_stack.back();
}

void Tracer::end(std::uint64_t id, std::uint64_t count)
{
    if (id == 0) return;
    const std::int64_t t = now_ns();
    if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
    const std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[id - 1];
    span.end_ns = t;
    span.count = count;
}

std::vector<Span> Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Span_tree analyse(std::vector<Span> spans)
{
    Span_tree tree;
    tree.spans = std::move(spans);
    const std::size_t n = tree.spans.size();
    std::vector<std::vector<std::size_t>> children(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Span& s = tree.spans[i];
        if (s.parent == 0) continue;
        const Span& p = tree.spans[s.parent - 1];
        if (s.start_ns < p.start_ns || s.end_ns > p.end_ns ||
            s.end_ns < s.start_ns) {
            ++tree.violations;
        }
        children[s.parent - 1].push_back(i);
    }
    tree.self_s.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Span& p = tree.spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        for (const std::size_t c : children[i]) {
            const Span& s = tree.spans[c];
            cover.emplace_back(std::max(s.start_ns, p.start_ns),
                               std::min(s.end_ns, p.end_ns));
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = p.start_ns;
        for (const auto& [lo, hi] : cover) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        const std::int64_t self = (p.end_ns - p.start_ns) - covered;
        if (self < 0) ++tree.violations;
        tree.self_s[i] = static_cast<double>(self) * 1e-9;
    }
    return tree;
}

double per_call_self_s(const Span_tree& tree, std::string_view name)
{
    std::vector<double> per_call;
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
        const Span& s = tree.spans[i];
        if (s.name != name || s.count == 0) continue;
        per_call.push_back(tree.self_s[i] / static_cast<double>(s.count));
    }
    return median(std::move(per_call));
}

double percentile(std::vector<double> values, double p)
{
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

Run::Run(Args args) : args_(std::move(args))
{
    threads_ = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    tracer_.set_enabled(args_.trace);
}

bool Run::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: FAILED: " << what << "\n";
    }
    return ok;
}

void Run::counter(const std::string& name, double value)
{
    counters_[name].push_back(value);
}

void Run::finish_counters()
{
    for (const auto& [name, values] : counters_) {
        bool same = true;
        for (const double v : values) same = same && v == values.front();
        check(same, "exact counter '" + name + "' differs between repetitions");
    }
    counters_.clear();
}

void Run::metric(const std::string& name, double value, std::string unit)
{
    metrics_.push_back({name, value, std::move(unit)});
}

void Run::detail(const std::string& name, double value, std::string unit)
{
    details_.push_back({name, value, std::move(unit)});
}

bool Run::window_open(Clock::time_point start, std::size_t done,
                      std::size_t minimum) const
{
    return done < minimum || seconds_since(start) < args_.seconds;
}

double peak_rss_mb_self()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double peak_rss_mb_children()
{
    rusage usage{};
    getrusage(RUSAGE_CHILDREN, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

mpsram::core::Study_options uncached_options()
{
    mpsram::core::Study_options opts;
    opts.cache.mode = mpsram::core::Cache_mode::off;
    return opts;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench
