#include "env.hpp"

#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"

#ifndef NSBENCH_COMPILER
#define NSBENCH_COMPILER "unknown"
#endif
#ifndef NSBENCH_BUILD_TYPE
#define NSBENCH_BUILD_TYPE "unknown"
#endif

namespace nsbench {

int hardware_threads()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

std::size_t last_level_cache_bytes()
{
    for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
        const long v = sysconf(name);
        if (v > 0) { return static_cast<std::size_t>(v); }
    }
    return 0;
}

namespace {

/// Runs fn(lo, hi) over [0, n) split into `threads` contiguous chunks.
template <typename Fn>
void parallel_ranges(std::size_t n, int threads, Fn fn)
{
    std::vector<std::thread> pool;
    const auto t = static_cast<std::size_t>(threads);
    for (std::size_t i = 0; i < t; ++i) {
        pool.emplace_back([=] { fn(n * i / t, n * (i + 1) / t); });
    }
    for (auto& th : pool) { th.join(); }
}

}  // namespace

CopyBandwidth measure_copy_bandwidth(int threads)
{
    CopyBandwidth bw;
    bw.threads = std::max(1, threads);
    bw.llc_bytes = last_level_cache_bytes();
    constexpr std::size_t kMin = std::size_t{256} << 20;
    constexpr std::size_t kMax = std::size_t{2} << 30;
    bw.array_bytes = std::min(kMax, std::max(kMin, 4 * bw.llc_bytes));
    const std::unique_ptr<char[]> src(new char[bw.array_bytes]);
    const std::unique_ptr<char[]> dst(new char[bw.array_bytes]);
    char* s = src.get();
    char* d = dst.get();
    // First touch by the copying threads, so pages sit where they run.
    parallel_ranges(bw.array_bytes, bw.threads, [=](std::size_t lo, std::size_t hi) {
        std::memset(s + lo, 1, hi - lo);
        std::memset(d + lo, 0, hi - lo);
    });
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        parallel_ranges(bw.array_bytes, bw.threads, [=](std::size_t lo, std::size_t hi) {
            std::memcpy(d + lo, s + lo, hi - lo);
        });
        rates.push_back(2.0 * static_cast<double>(bw.array_bytes) / seconds_since(t0) / 1e9);
    }
    bw.gbs = median(rates);
    return bw;
}

std::string CopyBandwidth::json() const
{
    return Json()
        .num("gbs", gbs)
        .integer("array_bytes", static_cast<long long>(array_bytes))
        .integer("llc_bytes", static_cast<long long>(llc_bytes))
        .integer("threads", threads)
        .text();
}

std::string environment_json(const Config& cfg)
{
    return Json()
        .integer("nproc", cfg.nproc)
        .integer("threads", cfg.threads)
        .str("compiler", NSBENCH_COMPILER)
        .str("build_type", NSBENCH_BUILD_TYPE)
        .str("git_sha", cfg.git_sha)
        .integer("seed", static_cast<long long>(cfg.seed))
        .num("seconds", cfg.seconds)
        .integer("last_level_cache_bytes", static_cast<long long>(last_level_cache_bytes()))
        .text();
}

}  // namespace nsbench
