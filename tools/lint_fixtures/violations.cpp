// Deliberately-bad snippets for the determinism-lint self-test.
//
// This file is NEVER compiled (tools/ is outside the CMake source globs);
// it exists so `lint_determinism.py --self-test` can prove that every
// rule fires on the construct it bans — and only there.  Each seeded
// violation carries a `// lint:expect(<rule>)` annotation; lines carrying
// `// lint:allow(<rule>)` prove the escape hatch suppresses.  Clean
// look-alike lines at the bottom guard against false positives.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace lint_fixture {

// --- rand: hidden global state ----------------------------------------------
inline double bad_rand_draw()
{
    return static_cast<double>(rand()) / RAND_MAX;  // lint:expect(rand)
}

inline void bad_rand_seed()
{
    srand(42);  // lint:expect(rand)
}

// --- random-device: nondeterministic seeding --------------------------------
inline unsigned bad_entropy_seed()
{
    std::random_device rd;  // lint:expect(random-device)
    return rd();            // benign use of the named variable
}

// --- wall-clock: results depend on when they ran ----------------------------
inline long bad_epoch_seconds()
{
    return static_cast<long>(time(nullptr));  // lint:expect(wall-clock)
}

inline long long bad_chrono_stamp()
{
    const auto t0 =
        std::chrono::steady_clock::now();  // lint:expect(wall-clock)
    return t0.time_since_epoch().count();
}

// --- unordered-iteration: hash order feeds an accumulation ------------------
inline double bad_unordered_reduction(
    const std::unordered_map<std::string, double>& weights)
{
    double sum = 0.0;
    for (const auto& [name, w] : weights) {  // lint:expect(unordered-iteration)
        sum += w;
    }
    return sum;
}

inline int bad_unordered_set_walk()
{
    std::unordered_set<int> seen{3, 1, 2};
    int checksum = 0;
    for (int v : seen) {  // lint:expect(unordered-iteration)
        checksum = checksum * 31 + v;
    }
    return checksum;
}

// --- float-narrowing: single-precision accumulator in a reduction -----------
inline float bad_float_accumulator(const std::vector<double>& xs)  // lint:expect(float-narrowing)
{
    float acc = 0.0f;  // lint:expect(float-narrowing)
    for (const double x : xs) {
        acc += static_cast<float>(x);  // lint:expect(float-narrowing)
    }
    return acc;
}

// --- raw-thread: threading outside util::Thread_pool ------------------------
inline void bad_raw_thread()
{
    std::thread t([] {});  // lint:expect(raw-thread)
    t.join();
}

#pragma omp parallel for  // lint:expect(raw-thread)
// (the pragma itself is the violation; no loop needed for the fixture)

// --- raw-socket: syscall I/O outside the audited layer ----------------------
inline int bad_raw_socket()
{
    const int fd = socket(1, 1, 0);  // lint:expect(raw-socket)
    return fd;
}

inline int bad_qualified_socket_calls(int fd)
{
    const int client = ::accept4(fd, nullptr, nullptr, 0);  // lint:expect(raw-socket)
    ::poll(nullptr, 0, 0);  // lint:expect(raw-socket)
    return client;
}

// --- raw-engine: a std engine outside util::Rng ----------------------------
inline double bad_raw_engine_draw(unsigned long long seed)
{
    std::mt19937_64 engine(seed);  // lint:expect(raw-engine)
    std::default_random_engine other(1);  // lint:expect(raw-engine)
    return std::normal_distribution<double>(0.0, 1.0)(engine) +
           static_cast<double>(other());
}

// --- escape hatch: reviewed exceptions stay silent --------------------------
inline std::size_t allowed_unordered_size_only(
    const std::unordered_map<std::string, double>& weights)
{
    // Order-insensitive: every element contributes 1 regardless of hash
    // order, reviewed 2026-08.
    std::size_t n = 0;
    for (const auto& kv : weights) {  // lint:allow(unordered-iteration)
        (void)kv;
        ++n;
    }
    return n;
}

// --- clean look-alikes: none of these may fire ------------------------------
inline int clean_lookalikes()
{
    // "rand(" in a comment and a string must not fire: rand( time( now(
    // (nor "socket( accept( poll(" here in a comment)
    const std::string s = "std::random_device rand( time( float ";
    int operand = 1;        // 'rand' inside an identifier
    int wall_time = 2;      // 'time' inside an identifier
    double runtime = 3.0;   // not a call
    (void)runtime;
    const int hardware =
        static_cast<int>(std::thread::hardware_concurrency());
    std::unordered_map<int, int> lut;
    lut.emplace(1, 2);      // lookup/insert without iteration is fine
    const auto it = lut.find(1);
    std::vector<int> sorted_keys{1, 2, 3};
    int sum = 0;
    for (int k : sorted_keys) sum += k;  // ordered iteration is fine
    const auto accept_step = [](int v) { return v; };
    const int stepped = accept_step(7);  // not the accept() syscall
    const auto bindings = [](int v) { return v; };
    const int bound = bindings(1);       // not bind() either
    // "std::mt19937_64" in a comment or string is not an engine, and
    // neither is an identifier that merely contains the name.
    const std::string engine_name = "std::mt19937_64";
    const int my_mt19937_64_count = 0;
    return operand + wall_time + hardware + sum + stepped + bound +
           my_mt19937_64_count + static_cast<int>(engine_name.size()) +
           static_cast<int>(s.size()) +
           (it != lut.end() ? it->second : 0);
}

} // namespace lint_fixture
