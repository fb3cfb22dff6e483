// Shared types of the benchmark program: run configuration, metrics, the
// result of one workload run, statistics helpers and a minimal JSON writer.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sparse/csr.hpp"
#include "sparse/reference_spgemm.hpp"
#include "trace.hpp"

namespace nsbench {

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 1;  ///< fixed native thread count T (<= nproc)
    int nproc = 1;
    std::string git_sha = "unknown";
};

/// Set-ups per run; setup_s is their median. Each runs in a process that
/// has not multiplied yet (see cold_setups).
constexpr int kSetupReps = 5;

using Values = std::map<std::string, double>;

/// Everything one workload run reports. Metric units live in the schema of
/// main.cpp; a per-layer metric a workload does not exercise reads 0.
struct Outcome {
    Values end_to_end;
    Values per_layer;
    std::uint64_t attempted = 0;  ///< multiplies or requests attempted
    std::uint64_t failed = 0;     ///< failed, rejected or byte-different from the reference
    bool mismatch = false;        ///< some output differed from the reference
    std::string inputs;           ///< JSON object: input descriptors
    std::string details;          ///< JSON object: sample counts and raw totals
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline double median(std::vector<double> v)
{
    if (v.empty()) { return 0.0; }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in [0, 1].
[[nodiscard]] inline double percentile(std::vector<double> v, double p)
{
    if (v.empty()) { return 0.0; }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

[[nodiscard]] inline double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

template <nsparse::ValueType T>
[[nodiscard]] bool same_bytes(const nsparse::CsrMatrix<T>& x, const nsparse::CsrMatrix<T>& y)
{
    return x.rows == y.rows && x.cols == y.cols && x.rpt == y.rpt && x.col == y.col &&
           x.val.size() == y.val.size() &&
           std::equal(x.val.begin(), x.val.end(), y.val.begin(), [](T a, T b) {
               return std::memcmp(&a, &b, sizeof(T)) == 0;
           });
}

/// Bytes a multiply C = A*B moves, computed from array sizes (cache misses
/// ignored): the symbolic pass reads A's rpt/col, two B row pointers per A
/// nonzero and B's column of every product; the numeric pass reads the same
/// plus A's and B's values; C's rpt/col/val are written once.
template <nsparse::ValueType T>
[[nodiscard]] double computed_bytes(const nsparse::CsrMatrix<T>& a, nsparse::wide_t products,
                                    nsparse::wide_t nnz_c)
{
    const double ia = sizeof(nsparse::index_t);
    const double rows = static_cast<double>(a.rows) + 1.0;
    const double nnz_a = static_cast<double>(a.nnz());
    const double prod = static_cast<double>(products);
    const double symbolic = rows * ia + nnz_a * ia + nnz_a * 2.0 * ia + prod * ia;
    const double numeric = rows * ia + nnz_a * (ia + sizeof(T)) + nnz_a * 2.0 * ia +
                           prod * (ia + sizeof(T));
    const double write = rows * ia + static_cast<double>(nnz_c) * (ia + sizeof(T));
    return symbolic + numeric + write;
}

/// Lower-case metric key of a dataset name, with '/' and ' ' turned into '_'.
[[nodiscard]] inline std::string metric_key(const std::string& name)
{
    std::string k;
    for (const char c : name) {
        if (c == '/' || c == ' ') {
            k += '_';
        } else {
            k += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
    }
    return k;
}

/// Builds one JSON object, key by key.
class Json {
public:
    Json& num(const std::string& key, double v)
    {
        char buf[64];
        if (std::isfinite(v)) {
            std::snprintf(buf, sizeof(buf), "%.10g", v);
        } else {
            std::snprintf(buf, sizeof(buf), "null");
        }
        return raw(key, buf);
    }
    Json& integer(const std::string& key, long long v) { return raw(key, std::to_string(v)); }
    Json& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
    Json& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
    Json& raw(const std::string& key, const std::string& json)
    {
        if (!body_.empty()) { body_ += ','; }
        body_ += quote(key);
        body_ += ':';
        body_ += json;
        return *this;
    }
    [[nodiscard]] std::string text() const
    {
        std::string t(1, '{');
        t += body_;
        t += '}';
        return t;
    }

    [[nodiscard]] static std::string quote(const std::string& s)
    {
        std::string q(1, '"');
        for (const char c : s) {
            if (c == '"' || c == '\\') { q += '\\'; }
            if (static_cast<unsigned char>(c) < 0x20) {
                q += ' ';
                continue;
            }
            q += c;
        }
        q += '"';
        return q;
    }

private:
    std::string body_;
};

/// What one pass over a workload did: a round of the matrix suite, or one
/// pass of the request stream.
struct PassRate {
    double flops = 0.0;
    double busy_s = 0.0;             ///< summed duration of the timed calls
    std::vector<double> latency_s;  ///< per multiply or request
};

/// End-to-end rates of a window: each statistic is taken within one pass,
/// and the median over the window's passes is reported, so a pass disturbed
/// by another process on the machine moves no metric on its own.
struct RateSummary {
    double gflops = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double req_per_s = 0.0;
    std::size_t samples = 0;  ///< latency samples over all passes
};

[[nodiscard]] inline RateSummary summarize(const std::vector<PassRate>& passes)
{
    std::vector<double> gflops, p50, p99, rps;
    RateSummary r;
    for (const auto& p : passes) {
        gflops.push_back(safe_div(p.flops, p.busy_s) / 1e9);
        p50.push_back(percentile(p.latency_s, 0.50) * 1e3);
        p99.push_back(percentile(p.latency_s, 0.99) * 1e3);
        rps.push_back(safe_div(static_cast<double>(p.latency_s.size()), p.busy_s));
        r.samples += p.latency_s.size();
    }
    r.gflops = median(gflops);
    r.p50_ms = median(p50);
    r.p99_ms = median(p99);
    r.req_per_s = median(rps);
    return r;
}

/// All passes of a window as one: their flops, call time and latency
/// samples summed and concatenated.
[[nodiscard]] inline PassRate pooled(const std::vector<PassRate>& passes)
{
    PassRate all;
    for (const auto& p : passes) {
        all.flops += p.flops;
        all.busy_s += p.busy_s;
        all.latency_s.insert(all.latency_s.end(), p.latency_s.begin(), p.latency_s.end());
    }
    return all;
}

/// Seconds of one set-up: all of it, and its input generation.
struct SetupTime {
    double total_s = 0.0;
    double gen_s = 0.0;
};

/// Runs `setup` (returning a SetupTime) in `reps` child processes, one
/// after another, and returns what each measured. The worker pool is a
/// process-lifetime singleton, so a second set-up in the same process would
/// not pay its spawn; forked from a process that has not multiplied yet,
/// every child pays it. Call this before the first multiply of the process.
/// Throws when a child fails.
template <class F>
[[nodiscard]] std::vector<SetupTime> cold_setups(int reps, F&& setup)
{
    std::vector<SetupTime> times;
    for (int rep = 0; rep < reps; ++rep) {
        int fd[2];
        if (pipe(fd) != 0) { throw std::runtime_error("cold set-up: pipe failed"); }
        const pid_t pid = fork();
        if (pid < 0) {
            close(fd[0]);
            close(fd[1]);
            throw std::runtime_error("cold set-up: fork failed");
        }
        if (pid == 0) {
            close(fd[0]);
            int code = 1;
            try {
                const SetupTime t = setup();
                code = write(fd[1], &t, sizeof(t)) == static_cast<ssize_t>(sizeof(t)) ? 0 : 1;
            } catch (...) {
            }
            _exit(code);  // no atexit handlers, no stdio flush, no pool join
        }
        close(fd[1]);
        SetupTime t;
        std::size_t got = 0;
        while (got < sizeof(t)) {
            const ssize_t r = read(fd[0], reinterpret_cast<char*>(&t) + got, sizeof(t) - got);
            if (r <= 0) { break; }
            got += static_cast<std::size_t>(r);
        }
        close(fd[0]);
        int status = 0;
        pid_t w = 0;
        do {
            w = waitpid(pid, &status, 0);
        } while (w < 0 && errno == EINTR);
        if (w != pid || got != sizeof(t) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            throw std::runtime_error("cold set-up: child process failed");
        }
        times.push_back(t);
    }
    return times;
}

/// JSON array of already-encoded elements.
[[nodiscard]] inline std::string json_array(const std::vector<std::string>& items)
{
    std::string a(1, '[');
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) { a += ','; }
        a += items[i];
    }
    a += ']';
    return a;
}

/// Descriptor of one input: the properties later claims must name.
struct InputDescriptor {
    std::string name;
    nsparse::index_t rows = 0;
    nsparse::wide_t nnz = 0;
    nsparse::wide_t products = 0;
    nsparse::wide_t nnz_c = 0;
    double row_products_p50 = 0.0;
    double row_products_p99 = 0.0;

    [[nodiscard]] double cf() const
    {
        return safe_div(static_cast<double>(products), static_cast<double>(nnz_c));
    }
    [[nodiscard]] std::string json() const
    {
        return Json()
            .str("name", name)
            .integer("rows", rows)
            .integer("nnz", static_cast<long long>(nnz))
            .integer("products", static_cast<long long>(products))
            .integer("nnz_c", static_cast<long long>(nnz_c))
            .num("cf", cf())
            .num("row_products_p50", row_products_p50)
            .num("row_products_p99", row_products_p99)
            .text();
    }
};

/// Describes the product C = A*B whose reference result is `c`.
template <nsparse::ValueType T>
[[nodiscard]] InputDescriptor describe(const std::string& name, const nsparse::CsrMatrix<T>& a,
                                       const nsparse::CsrMatrix<T>& b,
                                       const nsparse::CsrMatrix<T>& c)
{
    InputDescriptor d;
    d.name = name;
    d.rows = a.rows;
    d.nnz = a.nnz();
    d.nnz_c = c.nnz();
    std::vector<double> per_row;
    for (const auto n : nsparse::intermediate_products_per_row(a, b)) {
        d.products += n;
        per_row.push_back(static_cast<double>(n));
    }
    d.row_products_p50 = percentile(per_row, 0.50);
    d.row_products_p99 = percentile(per_row, 0.99);
    return d;
}

/// Adds the tracing metrics of the traced window [t0_ns, t1_ns]: each
/// layer's self time and the share of the window no span covers.
inline void add_trace_metrics(Values& m, const Tracer& tr, std::int64_t t0_ns, std::int64_t t1_ns)
{
    for (const auto& [layer, s] : tr.self_seconds_by_layer(t0_ns, t1_ns)) {
        m["trace.self_ms." + layer] = s * 1e3;
    }
    const double window = static_cast<double>(t1_ns - t0_ns) * 1e-9;
    m["trace.unattributed_share"] = 1.0 - safe_div(tr.covered_seconds(t0_ns, t1_ns), window);
}

// Workload entry points (direct.cpp, service.cpp).
Outcome run_direct(const Config& cfg, Tracer& tracer);
Outcome run_service(const Config& cfg, Tracer& tracer);

}  // namespace nsbench
