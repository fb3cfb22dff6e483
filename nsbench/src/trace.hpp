// In-memory span recorder of the benchmark's traced run.
//
// Spans are opened and closed by the benchmark's own code around each call
// into a library layer (matgen, sparse, gpusim, core, service, solver); the
// library itself is not instrumented. Each span keeps its name, layer,
// start and end, the span that was open when it started (its parent) and the
// request it belongs to. Spans stay in memory until the run ends, when they
// are written once in the Chrome trace-event format (chrome://tracing and
// Perfetto read it). A disabled tracer records nothing and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nsbench {

struct SpanRecord {
    const char* name = "";
    const char* layer = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;   ///< index of the enclosing span, -1 at top level
    int request = -1;  ///< request id, -1 outside any request
};

class Tracer {
public:
    void set_enabled(bool on) { enabled_ = on; }

    /// Nanoseconds since the tracer was constructed.
    [[nodiscard]] std::int64_t now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /// Self time per layer in seconds over the spans inside [t0_ns, t1_ns]:
    /// each span's duration minus the durations of its direct children
    /// (spans nest, and one thread opens them all, so children never
    /// overlap).
    [[nodiscard]] std::map<std::string, double> self_seconds_by_layer(std::int64_t t0_ns,
                                                                      std::int64_t t1_ns) const;

    /// Seconds of [t0_ns, t1_ns] covered by top-level spans.
    [[nodiscard]] double covered_seconds(std::int64_t t0_ns, std::int64_t t1_ns) const;

    /// Writes every span as a Chrome trace-event "X" (complete) event.
    /// Returns false when the file cannot be written.
    [[nodiscard]] bool write_chrome_json(const std::string& path) const;

private:
    friend class Span;

    /// Opens a span; returns its index, or -1 when disabled.
    int open(const char* name, const char* layer, int request)
    {
        if (!enabled_) { return -1; }
        SpanRecord s;
        s.name = name;
        s.layer = layer;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.request = request;
        s.start_ns = now_ns();
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void close(int idx)
    {
        if (idx < 0) { return; }
        spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
        if (!stack_.empty() && stack_.back() == idx) { stack_.pop_back(); }
    }

    bool enabled_ = false;
    std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

/// RAII span: opened on construction, closed on destruction.
class Span {
public:
    Span(Tracer& tr, const char* name, const char* layer, int request = -1)
        : tr_(tr), idx_(tr.open(name, layer, request))
    {}
    ~Span() { tr_.close(idx_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;

private:
    Tracer& tr_;
    int idx_;
};

}  // namespace nsbench
