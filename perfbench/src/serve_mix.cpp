// serve_mix: the query service daemon (tools/mpsram_serve) under a
// closed loop of `nproc` client connections, then restarted on its own
// cache directory.
//
// Each client sends, per round, a seeded stream of repeats from a small
// hot catalog (four of them 10k-sample stored mc_tdp tables of ~570 KB),
// cold formula-engine mc_tdp queries with distinct seeds (executed,
// memoized and stored to disk), and an op:status.  The composition of a
// round is fixed, so the daemon's counters per round are exact.  The
// restart phase starts a fresh daemon on the same cache directory and
// asks each catalog query once, which the on-disk cache answers.  No
// query here runs SPICE: the workload is bound by service queueing,
// (de)serialization and the cache, so a solver change must not move it.
#include <algorithm>
#include <csignal>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/serialize.h"
#include "core/service.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/socket.h"
#include "perfbench.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace mpsram;
using P = tech::Patterning_option;

constexpr std::size_t catalog_repeats = 2;  // per client and round
constexpr std::size_t cold_per_client = 3;  // per round
constexpr int cold_samples = 1000;
constexpr int io_timeout_ms = 120000;

// --- requests ----------------------------------------------------------------

core::Query mc_query(core::Metric metric, P option, int word_lines, double ol,
                     int samples, std::uint64_t seed)
{
    mc::Distribution_options mc;
    mc.samples = samples;
    mc.seed = seed;
    core::Query q(metric);
    q.with_case({option, word_lines, ol}).with_mc(mc);
    if (metric == core::Metric::mc_twp) {
        q.with_twp_engine(core::Twp_engine::formula);
    }
    return q;
}

/// The hot catalog; its MC seeds derive from the workload seed.
std::vector<core::Query> catalog(std::uint64_t seed)
{
    using core::Metric;
    auto s = [seed](std::uint64_t i) { return mix_seed(seed, 1000 + i); };
    const std::vector<P> options(tech::all_patterning_options.begin(),
                                 tech::all_patterning_options.end());
    return {
        mc_query(Metric::mc_tdp, P::le3, 64, 8e-9, 10000, s(0)),
        mc_query(Metric::mc_tdp, P::le3, 64, 5e-9, 10000, s(1)),
        mc_query(Metric::mc_tdp, P::sadp, 64, -1.0, 10000, s(2)),
        mc_query(Metric::mc_tdp, P::euv, 64, -1.0, 10000, s(3)),
        mc_query(Metric::mc_tdp, P::le3, 64, 3e-9, 2000, s(4)),
        mc_query(Metric::mc_twp, P::sadp, 64, -1.0, 2000, s(5)),
        mc_query(Metric::mc_tdp, P::euv, 256, -1.0, 1000, s(6)),
        core::Query(Metric::worst_case_rc).over_options(options, 64),
    };
}

/// Cold query number `index`: a distinct MC seed, so a distinct cache key.
core::Query cold_query(std::uint64_t seed, std::uint64_t index)
{
    struct Pick {
        P option;
        double ol;
    };
    static const Pick picks[] = {{P::le3, 3e-9}, {P::le3, 5e-9},
                                 {P::le3, 7e-9}, {P::le3, 8e-9},
                                 {P::sadp, -1.0}, {P::euv, -1.0}};
    const std::uint64_t s = mix_seed(seed ^ 0x636f6c64ull, index);
    const Pick& pick = picks[s % 6];
    return mc_query(core::Metric::mc_tdp, pick.option, 64, pick.ol,
                    cold_samples, s);
}

std::string request_line(std::string_view op, std::uint64_t id,
                         const core::Query* query = nullptr)
{
    util::Json request;
    request.set("v", core::service_protocol_version);
    request.set("op", op);
    request.set("id", id);
    if (query != nullptr) request.set("query", core::json_of_query(*query));
    return request.dump() + "\n";
}

/// In-process reference bytes of a query's result table.
std::string reference_dump(const core::Study_session& session,
                           core::Query q, int threads)
{
    q.on(core::Runner_options{threads});
    q.mc.runner = core::Runner_options{threads};
    return core::json_of_result_table(session.run(q)).dump();
}

// --- responses ---------------------------------------------------------------

constexpr std::string_view ok_prefix = "{\"v\":1,\"ok\":true,";

/// The parts of an op:query response the checks need.  The result bytes
/// are located, not parsed: the envelope is canonical JSON whose
/// `result` member is followed only by the small `serve` object.
struct Served {
    bool ok = false;
    std::string_view result;
    bool memo_hit = false;
    double wall_ms = 0.0;
    std::uint64_t cache_hits = 0;
};

Served parse_served(const std::string& line)
{
    Served out;
    static constexpr std::string_view result_key = "\"result\":";
    static constexpr std::string_view serve_key = ",\"serve\":";
    if (line.compare(0, ok_prefix.size(), ok_prefix) != 0) return out;
    const std::size_t r = line.find(result_key);
    const std::size_t s = line.rfind(serve_key);
    if (r == std::string::npos || s == std::string::npos || s < r) return out;
    const std::size_t from = r + result_key.size();
    out.result = std::string_view(line).substr(from, s - from);
    const std::size_t serve_from = s + serve_key.size();
    const util::Json serve = util::Json::parse(std::string_view(line).substr(
        serve_from, line.size() - 1 - serve_from));
    out.memo_hit = serve.at("memo_hit").as_bool();
    out.wall_ms = serve.at("wall_ms").as_double();
    out.cache_hits = serve.at("cache_hits").as_u64();
    out.ok = true;
    return out;
}

// --- daemon and clients ------------------------------------------------------

/// One mpsram_serve child process.  The destructor kills and reaps a
/// daemon that is still running, so no process outlives the benchmark.
class Daemon {
public:
    Daemon(const std::string& binary, const std::string& socket,
           const std::string& cache_dir)
    {
        // The daemon's default runner (one thread per served query); the
        // LRU memo holds every catalog entry plus the recent cold ones,
        // and the queue holds every client's request.
        std::vector<std::string> args = {binary,         "--socket",
                                         socket,         "--memo-entries",
                                         "256",          "--max-pending",
                                         "256"};
        // The daemon's environment: the caller's minus every MPSRAM_ pin,
        // plus a readwrite cache in this run's directory.
        std::vector<std::string> env;
        for (char** e = environ; *e != nullptr; ++e) {
            if (std::string_view(*e).substr(0, 7) != "MPSRAM_") {
                env.emplace_back(*e);
            }
        }
        env.push_back("MPSRAM_CACHE=readwrite");
        env.push_back("MPSRAM_CACHE_DIR=" + cache_dir);
        std::vector<char*> argv, envp;
        for (auto& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        for (auto& e : env) envp.push_back(e.data());
        envp.push_back(nullptr);

        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                         O_WRONLY, 0);
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                   argv.data(), envp.data());
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot launch " + binary);
        }
    }
    ~Daemon()
    {
        if (running()) {
            kill(pid_, SIGKILL);
            wait_exit(0);
        }
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    bool running()
    {
        if (pid_ < 0 || exited_) return false;
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) record(status);
        return !exited_;
    }

    /// Wait up to `timeout_s` for the daemon to exit; its exit code, or
    /// -1 when it was killed or did not exit in time.
    int wait_exit(double timeout_s)
    {
        const auto start = Clock::now();
        while (running()) {
            if (seconds_since(start) >= timeout_s) {
                if (timeout_s > 0.0) return -1;
                int status = 0;
                if (waitpid(pid_, &status, 0) == pid_) record(status);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return exit_code_;
    }

private:
    void record(int status)
    {
        exited_ = true;
        exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    pid_t pid_ = -1;
    bool exited_ = false;
    int exit_code_ = -1;
};

/// A closed-loop client: one connection, one request in flight.
class Client {
public:
    explicit Client(util::Socket socket) : socket_(std::move(socket)) {}

    std::string call(const std::string& line)
    {
        socket_.write_all(line, io_timeout_ms);
        while (true) {
            if (auto response = lines_.pop_line()) return *response;
            const auto n = socket_.read_some(chunk_.data(), chunk_.size(),
                                             io_timeout_ms);
            if (!n) throw std::runtime_error("daemon response timed out");
            if (*n == 0) {
                throw std::runtime_error("daemon closed the connection");
            }
            lines_.append(chunk_.data(), *n);
        }
    }

private:
    util::Socket socket_;
    util::Line_buffer lines_;
    std::vector<char> chunk_ = std::vector<char>(1 << 20);  // a whole table
};

/// Connect to a freshly launched daemon, retrying until it listens.
Client connect(const std::string& socket, Daemon& daemon)
{
    const auto start = Clock::now();
    while (true) {
        try {
            return Client(util::Socket::connect_unix(socket));
        } catch (const std::exception&) {
            if (!daemon.running() || seconds_since(start) > 60.0) throw;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }
}

util::Json call_json(Client& client, std::string_view op, std::uint64_t id)
{
    util::Json response = util::Json::parse(client.call(request_line(op, id)));
    if (!response.at("ok").as_bool()) {
        throw std::runtime_error(std::string(op) + " failed: " +
                                 response.dump());
    }
    return response;
}

/// Daemon counters sampled at a round boundary.
struct Counters {
    std::uint64_t requests = 0, queries = 0, memo_hits = 0, errors = 0,
                  busy = 0, cache_hits = 0, cache_misses = 0,
                  cache_stores = 0;
};

Counters delta(const Counters& a, const Counters& b)
{
    return {a.requests - b.requests,       a.queries - b.queries,
            a.memo_hits - b.memo_hits,     a.errors - b.errors,
            a.busy - b.busy,               a.cache_hits - b.cache_hits,
            a.cache_misses - b.cache_misses, a.cache_stores - b.cache_stores};
}

Counters sample_counters(Client& client, std::uint64_t id)
{
    const util::Json status = call_json(client, "status", id).at("status");
    const util::Json cache = call_json(client, "cache_stats", id + 1)
                                 .at("cache_stats")
                                 .at("session");
    Counters c;
    c.requests = status.at("requests").as_u64();
    c.queries = status.at("queries").as_u64();
    c.memo_hits = status.at("memo_hits").as_u64();
    c.errors = status.at("errors").as_u64();
    c.busy = status.at("busy").as_u64();
    c.cache_hits = cache.at("hits").as_u64();
    c.cache_misses = cache.at("misses").as_u64();
    c.cache_stores = cache.at("stores").as_u64();
    return c;
}

enum class Kind { catalog, cold, status };

struct Record {
    Kind kind = Kind::catalog;
    bool ok = false;
    std::string error;
    double latency_ms = 0.0;
    double wall_ms = 0.0;
    bool memo_hit = false;
};

struct Cold_result {
    std::uint64_t index = 0;
    std::uint64_t digest = 0;
};

/// Joins a set of threads on every exit path, exceptions included.
struct Joined_threads {
    std::vector<std::thread> threads;
    Joined_threads() = default;
    Joined_threads(const Joined_threads&) = delete;
    Joined_threads& operator=(const Joined_threads&) = delete;
    ~Joined_threads() { join(); }
    void join()
    {
        for (auto& t : threads) {
            if (t.joinable()) t.join();
        }
    }
};

/// Scratch directory of one serve phase, removed on every exit path.
struct Scratch_dir {
    std::filesystem::path path;
    explicit Scratch_dir(std::filesystem::path p) : path(std::move(p))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~Scratch_dir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
    }
    Scratch_dir(const Scratch_dir&) = delete;
    Scratch_dir& operator=(const Scratch_dir&) = delete;
};

} // namespace

void serve_phase(Run& run, const Serve_plan& plan)
{
    Tracer& tracer = run.tracer();
    const bool traced = tracer.enabled();
    const int clients_n = run.threads();
    const std::uint64_t seed = run.args().seed;
    const Scratch_dir dir(std::filesystem::path(run.args().work_dir) /
                          ("serve-" + std::to_string(getpid())));
    const std::string socket = (dir.path / "d.sock").string();
    const std::string cache_dir = (dir.path / "cache").string();

    // In-process references for every catalog query.
    const core::Study_session reference(tech::n10(), uncached_options());
    const std::vector<core::Query> queries = catalog(seed);
    std::vector<std::string> catalog_lines, expected;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        catalog_lines.push_back(request_line("query", i + 1, &queries[i]));
        expected.push_back(reference_dump(reference, queries[i], clients_n));
    }

    std::vector<double> setup_s;
    auto launch = [&](std::vector<Client>& clients, std::size_t count) {
        Scope span(tracer, "serve.launch");
        const auto start = Clock::now();
        auto daemon = std::make_unique<Daemon>(run.args().serve_binary,
                                               socket, cache_dir);
        for (std::size_t i = 0; i < count; ++i) {
            clients.push_back(connect(socket, *daemon));
        }
        call_json(clients.front(), "status", 0);
        setup_s.push_back(seconds_since(start));
        return daemon;
    };
    auto shutdown = [&](std::unique_ptr<Daemon>& daemon,
                        std::vector<Client>& clients) {
        Scope span(tracer, "serve.shutdown");
        call_json(clients.front(), "shutdown", 0);
        clients.clear();
        run.check(daemon->wait_exit(60.0) == 0,
                  "serve_mix daemon did not shut down gracefully");
        run.check(!std::filesystem::exists(socket),
                  "serve_mix daemon left its socket file behind");
        daemon.reset();
    };
    auto check_catalog = [&](const Served& served, std::size_t i,
                             const std::string& what) {
        return run.check(served.ok && served.result == expected[i],
                         "serve_mix " + what + " catalog query " +
                             std::to_string(i) +
                             " differs from the in-process table");
    };

    std::vector<Client> clients;
    std::unique_ptr<Daemon> daemon = launch(clients, clients_n);

    // Warm-up, outside the window: each catalog query executes once.
    for (std::size_t i = 0; i < queries.size(); ++i) {
        Scope span(tracer, "serve.warmup");
        check_catalog(parse_served(clients.front().call(catalog_lines[i])), i,
                      "cold");
    }

    // Measured rounds.
    std::vector<Record> records;
    std::vector<Cold_result> colds;
    std::vector<double> round_s, traced_s, untraced_s;
    Counters before = sample_counters(clients.front(), 0);
    // Every round's counter deltas must equal (the exact-counter gate), so
    // the last one stands for all.
    Counters per_round;
    const auto window = Clock::now();
    for (std::size_t round = 0;
         round < plan.min_rounds || seconds_since(window) < plan.seconds;
         ++round) {
        tracer.set_enabled(traced &&
                           (!plan.workload || run.traced_pass(round)));
        Scope round_span(tracer, "serve.round");
        std::vector<std::vector<Record>> rec(clients_n);
        std::vector<std::vector<Cold_result>> cold(clients_n);
        std::vector<std::string> errors(clients_n);
        const auto start = Clock::now();
        Joined_threads threads;
        for (int c = 0; c < clients_n; ++c) {
            threads.threads.emplace_back([&, c] {
                try {
                    // This client's stream for the round: every catalog
                    // query twice, three cold queries and one status, in
                    // a seeded order.
                    const std::uint64_t stream =
                        mix_seed(seed, (round + 1) * 4096 + c);
                    std::vector<std::uint64_t> items;
                    for (std::size_t r = 0; r < catalog_repeats; ++r) {
                        for (std::size_t i = 0; i < queries.size(); ++i) {
                            items.push_back(i);
                        }
                    }
                    for (std::size_t k = 0; k < cold_per_client; ++k) {
                        items.push_back(1000 + k);
                    }
                    items.push_back(2000);
                    util::Rng rng(stream);
                    for (std::size_t i = items.size(); i > 1; --i) {
                        std::swap(items[i - 1], items[rng.index(i)]);
                    }
                    for (std::size_t k = 0; k < items.size(); ++k) {
                        const std::uint64_t id =
                            ((round + 1) << 24) |
                            (static_cast<std::uint64_t>(c) << 16) | k;
                        const std::uint64_t item = items[k];
                        std::string line;
                        Record r;
                        std::uint64_t cold_index = 0;
                        if (item < 1000) {
                            line = catalog_lines[item];
                        } else if (item < 2000) {
                            r.kind = Kind::cold;
                            cold_index =
                                (round * clients_n + c) * cold_per_client +
                                (item - 1000);
                            const core::Query q = cold_query(seed, cold_index);
                            line = request_line("query", id, &q);
                        } else {
                            r.kind = Kind::status;
                            line = request_line("status", id);
                        }
                        Scope span(tracer, "serve.request", round_span.id(),
                                   id);
                        const auto t0 = Clock::now();
                        const std::string response = clients[c].call(line);
                        r.latency_ms = seconds_since(t0) * 1e3;
                        if (r.kind == Kind::status) {
                            r.ok = response.rfind(ok_prefix, 0) == 0;
                            if (!r.ok) r.error = response.substr(0, 200);
                        } else {
                            const Served served = parse_served(response);
                            r.wall_ms = served.wall_ms;
                            r.memo_hit = served.memo_hit;
                            if (!served.ok) {
                                r.error = response.substr(0, 200);
                            } else if (r.kind == Kind::catalog &&
                                       served.result != expected[item]) {
                                r.error = "catalog result differs from the "
                                          "in-process table";
                            } else if (r.kind == Kind::cold) {
                                cold[c].push_back(
                                    {cold_index, util::fnv1a(served.result)});
                            }
                            r.ok = r.error.empty();
                        }
                        rec[c].push_back(r);
                    }
                } catch (const std::exception& e) {
                    errors[c] += e.what();
                }
            });
        }
        threads.join();
        const double wall = seconds_since(start);
        round_s.push_back(wall);
        (tracer.enabled() ? traced_s : untraced_s).push_back(wall);
        for (int c = 0; c < clients_n; ++c) {
            for (const Record& r : rec[c]) {
                run.check(r.ok, "serve_mix request: " + r.error);
                records.push_back(r);
            }
            run.check(errors[c].empty(),
                      "serve_mix client " + std::to_string(c) + ": " +
                          errors[c]);
            colds.insert(colds.end(), cold[c].begin(), cold[c].end());
        }
        const Counters after = sample_counters(clients.front(), 0);
        per_round = delta(after, before);
        run.counter("serve.round.requests", per_round.requests);
        run.counter("serve.round.queries", per_round.queries);
        run.counter("serve.round.memo_hits", per_round.memo_hits);
        run.counter("serve.round.errors", per_round.errors);
        run.counter("serve.round.busy", per_round.busy);
        run.counter("serve.round.cache_hits", per_round.cache_hits);
        run.counter("serve.round.cache_misses", per_round.cache_misses);
        run.counter("serve.round.cache_stores", per_round.cache_stores);
        before = after;
    }
    tracer.set_enabled(traced);
    const Counters main_counters = before;
    run.check(main_counters.busy == 0 && main_counters.errors == 0,
              "serve_mix daemon reported busy or error envelopes");

    if (traced) {
        // Round trips of op:status to the now idle daemon.
        for (int i = 0; i < 200; ++i) {
            Scope span(tracer, "socket.status_rtt");
            call_json(clients.front(), "status", 0);
        }
    }
    shutdown(daemon, clients);

    // Restart phase: a fresh daemon answers the catalog from disk.
    std::vector<double> restart_ms;
    Counters per_restart;
    std::uint64_t restart_busy = 0, restart_errors = 0;
    for (std::size_t r = 0; r < plan.restarts; ++r) {
        daemon = launch(clients, 1);
        for (std::size_t i = 0; i < queries.size(); ++i) {
            Scope span(tracer, "serve.restart_request");
            const auto t0 = Clock::now();
            const std::string response = clients.front().call(catalog_lines[i]);
            restart_ms.push_back(seconds_since(t0) * 1e3);
            const Served served = parse_served(response);
            if (check_catalog(served, i, "restart")) {
                run.check(!served.memo_hit && served.cache_hits == 1,
                          "serve_mix restart did not load catalog query " +
                              std::to_string(i) + " from the disk cache");
            }
        }
        const Counters c = sample_counters(clients.front(), 0);
        run.counter("serve.restart.cache_hits", c.cache_hits);
        run.counter("serve.restart.cache_misses", c.cache_misses);
        run.counter("serve.restart.memo_hits", c.memo_hits);
        run.check(c.busy == 0 && c.errors == 0,
                  "serve_mix restarted daemon reported busy or errors");
        per_restart = c;
        restart_busy += c.busy;
        restart_errors += c.errors;
        shutdown(daemon, clients);
    }

    // Every cold result against its in-process table, outside the window:
    // one serial query per worker, as many workers as clients.
    {
        Scope span(tracer, "serve.verify_cold");
        std::vector<char> same(colds.size(), 0);
        Joined_threads workers;
        for (int w = 0; w < clients_n; ++w) {
            workers.threads.emplace_back([&, w] {
                for (std::size_t i = w; i < colds.size(); i += clients_n) {
                    try {
                        same[i] = util::fnv1a(reference_dump(
                                      reference,
                                      cold_query(seed, colds[i].index),
                                      1)) == colds[i].digest;
                    } catch (const std::exception&) {
                        same[i] = 0;
                    }
                }
            });
        }
        workers.join();
        for (std::size_t i = 0; i < colds.size(); ++i) {
            run.check(same[i] != 0,
                      "serve_mix cold query " +
                          std::to_string(colds[i].index) +
                          " differs from the in-process table");
        }
    }

    std::vector<double> all_ms, warm_ms, cold_ms, exec_ms, wait_ms;
    for (const Record& r : records) {
        all_ms.push_back(r.latency_ms);
        if (r.kind == Kind::status) continue;
        (r.memo_hit ? warm_ms : cold_ms).push_back(r.latency_ms);
        exec_ms.push_back(r.wall_ms);
        wait_ms.push_back(r.latency_ms - r.wall_ms);
    }
    // Every round sends the same number of requests.
    const double rps =
        static_cast<double>(records.size() / round_s.size()) / median(round_s);

    if (traced) {
        // Disk-cache traffic: hits per restart (the catalog loaded from
        // disk), misses and stores per round (the cold queries).
        run.metric("cache.hits", static_cast<double>(per_restart.cache_hits),
                   "count");
        run.metric("cache.misses",
                   static_cast<double>(per_round.cache_misses), "count");
        run.metric("cache.stores",
                   static_cast<double>(per_round.cache_stores), "count");
        run.metric("service.exec_ms_p50", median(exec_ms), "ms");
        run.metric("service.wait_ms_p50", median(wait_ms), "ms");
        run.metric("service.memo_hit_ratio",
                   static_cast<double>(per_round.memo_hits) /
                       static_cast<double>(per_round.queries),
                   "ratio");
        run.metric("service.busy",
                   static_cast<double>(main_counters.busy + restart_busy),
                   "count");
        run.metric("service.errors",
                   static_cast<double>(main_counters.errors + restart_errors),
                   "count");
        if (plan.workload) {
            run.metric("trace.overhead_pct",
                       (median(traced_s) / median(untraced_s) - 1.0) * 100.0,
                       "%");
        }
        return;
    }
    if (!plan.workload) return;
    run.metric("setup_s", median(setup_s), "s");
    run.metric("pass_s", median(round_s), "s");
    run.metric("ops_per_s", rps, "1/s");
    run.metric("op_p50_ms", percentile(all_ms, 50.0), "ms");
    run.metric("op_p90_ms", percentile(all_ms, 90.0), "ms");
    run.metric("peak_rss_mb",
               std::max(peak_rss_mb_self(), peak_rss_mb_children()), "MB");
    run.detail("serve_rps", rps, "req/s");
    run.detail("serve_p50_ms", percentile(all_ms, 50.0), "ms");
    run.detail("serve_p90_ms", percentile(all_ms, 90.0), "ms");
    run.detail("serve_warm_p50_ms", median(warm_ms), "ms");
    run.detail("serve_cold_p50_ms", median(cold_ms), "ms");
    run.detail("restart_p50_ms", median(restart_ms), "ms");
    run.detail("rounds", static_cast<double>(round_s.size()), "count");
}

void run_serve_mix(Run& run)
{
    Serve_plan plan;
    plan.seconds = run.args().seconds;
    plan.min_rounds = run.tracer().enabled() ? 2 : 1;
    plan.restarts = 8;
    plan.workload = true;
    serve_phase(run, plan);
    if (run.tracer().enabled()) {
        Probe_plan probes;
        probes.have_serve = true;
        run_probes(run, probes);
    }
}

} // namespace perfbench
