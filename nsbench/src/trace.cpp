#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace nsbench {

std::map<std::string, double> Tracer::self_seconds_by_layer(std::int64_t t0_ns,
                                                            std::int64_t t1_ns) const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& s : spans_) {
        if (s.parent >= 0) { child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns; }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        if (s.start_ns < t0_ns || s.end_ns > t1_ns) { continue; }
        self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return self;
}

double Tracer::covered_seconds(std::int64_t t0_ns, std::int64_t t1_ns) const
{
    std::int64_t covered = 0;
    for (const auto& s : spans_) {
        if (s.parent >= 0) { continue; }
        const std::int64_t lo = std::max(s.start_ns, t0_ns);
        const std::int64_t hi = std::min(s.end_ns, t1_ns);
        if (hi > lo) { covered += hi - lo; }
    }
    return static_cast<double>(covered) * 1e-9;
}

bool Tracer::write_chrome_json(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) { return false; }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%d}}",
                     i == 0 ? "" : ",", s.name, s.layer, static_cast<double>(s.start_ns) * 1e-3,
                     static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.request);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

}  // namespace nsbench
