// Environment and roofline block of the benchmark report.
#pragma once

#include <cstddef>
#include <string>

namespace nsbench {

struct Config;

/// Hardware threads the process may use (at least 1).
int hardware_threads();

/// Last-level cache size in bytes as the C library reports it (0 = unknown).
std::size_t last_level_cache_bytes();

struct CopyBandwidth {
    double gbs = 0.0;             ///< median of the timed copies, read + write bytes
    std::size_t array_bytes = 0;  ///< size of each of the two arrays
    std::size_t llc_bytes = 0;    ///< last-level cache the size was derived from
    int threads = 1;

    [[nodiscard]] std::string json() const;
};

/// Host copy bandwidth with `threads` threads over two arrays of at least
/// 4x the last-level cache (at least 256 MiB, at most 2 GiB each).
CopyBandwidth measure_copy_bandwidth(int threads);

/// JSON object: nproc, resolved threads, compiler, build type, git SHA, seed.
std::string environment_json(const Config& cfg);

}  // namespace nsbench
