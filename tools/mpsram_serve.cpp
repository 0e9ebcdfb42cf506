// mpsram_serve: the query service daemon (core/service.h).
//
// Binds a Unix-domain socket, warms ONE shared Study_session, and serves
// the line-delimited JSON protocol until a client sends op:shutdown —
// corner searches, surrogate calibrations and whole query results then
// amortize across every request instead of across one process.  With
// MPSRAM_CACHE_DIR set the session persists its artifacts on disk too,
// so a restarted daemon warms from the cache.
//
// Usage:
//   mpsram_serve --socket PATH [--threads N] [--max-pending N]
//                [--max-clients N] [--max-line-bytes N]
//                [--memo-entries N] [--poll-ms N]
//
//   --socket          socket file to listen on (unlinked on shutdown)
//   --threads         worker threads per served query (0 = hardware)
//   --max-pending     request-queue bound; overflow gets a `busy` envelope
//   --max-clients     concurrent-connection bound
//   --max-line-bytes  per-client line-buffer bound; an unterminated
//                     stream past it is rejected and disconnected
//   --memo-entries    result-memo bound (LRU eviction; 0 disables)
//   --poll-ms         idle poll tick of the serve loop
//
// Exit status: 0 after a graceful shutdown drain; nonzero when the
// socket cannot be bound (including when another daemon is already
// listening on the path — a live daemon is never usurped).  Protocol
// errors never terminate the daemon.

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/service.h"
#include "core/session.h"

namespace {

using namespace mpsram;

[[noreturn]] void usage(const std::string& message)
{
    std::cerr << "mpsram_serve: " << message << "\n"
              << "usage: mpsram_serve --socket PATH [--threads N] "
                 "[--max-pending N] [--max-clients N] "
                 "[--max-line-bytes N] [--memo-entries N] [--poll-ms N]\n";
    std::exit(2);
}

struct Args {
    std::vector<std::pair<std::string, std::string>> flags;

    std::optional<std::string> get(const std::string& name) const
    {
        for (const auto& flag : flags) {
            if (flag.first == name) return flag.second;
        }
        return std::nullopt;
    }
    std::string require(const std::string& name) const
    {
        const auto v = get(name);
        if (!v) usage("missing required flag --" + name);
        return *v;
    }
};

Args parse_args(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) usage("unexpected argument '" + arg + "'");
        const std::string name = arg.substr(2);
        if (i + 1 >= argc) usage("flag --" + name + " needs a value");
        args.flags.emplace_back(name, argv[++i]);
    }
    return args;
}

} // namespace

int main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    try {
        core::Service_options opts;
        opts.socket_path = args.require("socket");
        if (const auto t = args.get("threads")) {
            opts.runner.threads = std::stoi(*t);
        }
        if (const auto n = args.get("max-pending")) {
            opts.max_pending = std::stoul(*n);
        }
        if (const auto n = args.get("max-clients")) {
            opts.max_clients = std::stoul(*n);
        }
        if (const auto n = args.get("max-line-bytes")) {
            opts.max_line_bytes = std::stoul(*n);
        }
        if (const auto n = args.get("memo-entries")) {
            opts.max_memo_entries = std::stoul(*n);
        }
        if (const auto n = args.get("poll-ms")) {
            opts.poll_interval_ms = std::stoi(*n);
        }

        const core::Study_session session;
        core::Query_service service(session, opts);
        const int status = service.serve([&] {
            std::cerr << "mpsram_serve: listening on " << opts.socket_path
                      << " (cache " << core::to_string(session.cache_mode())
                      << ")\n";
        });
        std::cerr << "mpsram_serve: graceful shutdown after "
                  << service.stats().requests << " requests ("
                  << service.stats().queries << " queries, "
                  << service.stats().memo_hits << " memo hits)\n";
        return status;
    } catch (const std::exception& e) {
        std::cerr << "mpsram_serve: " << e.what() << "\n";
        return 1;
    }
}
